"""Valid and malformed input through ``cli.main``.

Whatever the builtin name or ``.lsa`` text, a command ends in one of the
documented exit codes 0, 1, 2 or 64; no exception escapes ``main`` and no
traceback reaches stderr.
"""

import contextlib
import io

from hypothesis import event, given, settings
from hypothesis import strategies as st
import pytest

from base_change import SO3
from superlie.cli import main
from superlie.constructions import abelian, heisenberg_odd, model_registry
from superlie.corpus import corpus
from superlie.fileformat import emit

EXIT_CODES = {0, 1, 2, 64}

TEXTS = [emit(L) for L in model_registry() + [abelian(2, 1), heisenberg_odd(3), SO3]
         + corpus(0, 5)]

param = st.integers(0, 4).map(str)
VALID_NAMES = st.one_of(
    st.just("L4"),
    st.builds(lambda m, n: f"Ab({m},{n})", param, param),
    st.builds(lambda p, q: f"H({p},{q})", param, param),
    st.builds(lambda k: f"H({k})", param),
)
# no digits, so an edit never turns a name into a larger valid one
EDIT_CHARS = st.sampled_from("(),- xAbHL\t")


@st.composite
def malformed_names(draw):
    """A valid name with one to three character edits."""
    name = draw(VALID_NAMES)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(name)))
        edit = draw(st.sampled_from(["delete", "insert", "swap"]))
        if edit == "delete":
            name = name[:pos] + name[pos + 1:]
        elif edit == "insert":
            name = name[:pos] + draw(EDIT_CHARS) + name[pos:]
        elif pos + 1 < len(name):
            name = name[:pos] + name[pos + 1] + name[pos] + name[pos + 2:]
    return name


@st.composite
def mutated_texts(draw):
    """``emit`` output of a model or corpus algebra with one to three edits:
    a one-character replacement, insertion or deletion, or a deleted,
    duplicated or swapped line."""
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "drop", "dup", "swap"]))
        line = lines[i]
        pos = draw(st.integers(0, len(line)))
        char = draw(st.characters(codec="utf-8", exclude_characters="\r\n"))
        if edit == "replace":
            lines[i] = line[:pos] + char + line[pos + 1:]
        elif edit == "insert":
            lines[i] = line[:pos] + char + line[pos:]
        elif edit == "delete":
            lines[i] = line[:pos] + line[pos + 1:]
        elif edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "dup":
            lines.insert(i, line)
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in EXIT_CODES, (argv, rc)
    assert "Traceback" not in err.getvalue()
    return rc


@pytest.fixture(scope="module")
def lsa_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.lsa"


@settings(deadline=None)
@given(st.one_of(VALID_NAMES, malformed_names()),
       st.sampled_from([["invariants"], ["invariants", "--json"], ["multiplier", "--json"],
                        ["multiplier", "--cocycles"], ["classify"], ["classify", "--json"]]),
       st.sampled_from([[], [], [], [], ["--bogus"], ["--seed", "1"], ["--builtin"]]))
def test_builtin_names(name, command, extra):
    event(f"exit {_run([command[0], '--builtin', name, *command[1:], *extra])}")


@settings(deadline=None)
@given(mutated_texts(),
       st.sampled_from(["validate", "invariants", "multiplier", "classify", "cover"]))
def test_mutated_files(lsa_path, text, command):
    lsa_path.write_text(text, encoding="utf-8")
    event(f"exit {_run([command, str(lsa_path)])}")


def test_unmutated_files_succeed(lsa_path):
    """The texts the edits start from are valid."""
    for text in TEXTS:
        lsa_path.write_text(text, encoding="utf-8")
        assert _run(["validate", str(lsa_path)]) == 0
        assert _run(["invariants", "--json", str(lsa_path)]) == 0

