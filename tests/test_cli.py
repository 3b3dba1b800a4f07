import argparse
import contextlib
import gc
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qchar
from qchar import (
    Signature,
    char_state_eval,
    dimension,
    random_block_element,
    scaling,
)
from qchar import blocks, cli, jsonio
from qchar.cli import main
from qchar.jsonio import MAX_PART, block_to_json, character_to_json, format_scalar

from helpers import iter_signatures, principal_specialization, random_character, run_fresh

DELTA_10 = '{"level": 2, "q": "1/2", "entries": [{"sig": [1, 0], "prob": "1"}]}'
CHAR = '{"level": %s, "q": "1/2", "entries": %s}'
BLOCK = '{"level": %s, "q": "1/2", "blocks": %s}'
ONE = '[{"sig": [0], "prob": "1"}]'
THETA = ["extreme", "--q", "1/2", "--level", "1", "--trunc", "2", "--theta"]
EMBED = ["embed", "--targets", "[[0, 0]]", "--block"]
TORUS = ["sgf-torus", "--char", CHAR % (1, '[{"sig": [1], "prob": "1"}]')]

# documents that must exit 2 with a JSON error, never with a traceback
MALFORMED = {
    "entries-not-objects": ["restrict", "--char", CHAR % (1, "[[1]]")],
    "entry-missing-prob": ["restrict", "--char", CHAR % (1, '[{"sig": [0]}]')],
    "entries-not-a-list": ["restrict", "--char", CHAR % (1, '{"sig": [0]}')],
    "bool-prob": ["restrict", "--char", CHAR % (1, '[{"sig": [0], "prob": true}]')],
    "bool-level": ["restrict", "--char", CHAR % ("true", ONE)],
    "bool-parts": ["qdim", "--q", "1/2", "--sig", "[true, false]"],
    "bool-point": ["schur-eval", "--sig", "[1, 0]", "--points", "[true, 2]"],
    "bool-torus-point": ["sgf-torus", "--char", CHAR % (1, ONE), "--z", "[[true, false]]"],
    "bool-theta-head": THETA + ['{"head": [false], "tail": 1}'],
    "bool-theta-tail": THETA + ['{"head": [0], "tail": true}'],
    "null-theta-head": THETA + ['{"head": [null], "tail": 1}'],
    "levels-not-a-list": ["coherent-check", "--family", '{"q": "1/2", "levels": 5}'],
    "blocks-not-objects": EMBED + [BLOCK % (1, "[[0]]")],
    "block-missing-sig": EMBED + [BLOCK % (1, '[{"matrix": [["1"]]}]')],
    "matrix-not-a-list": EMBED + [BLOCK % (1, '[{"sig": [0], "matrix": 5}]')],
    "rows-not-lists": EMBED + [BLOCK % (1, '[{"sig": [0], "matrix": [5]}]')],
    "bool-block-level": EMBED + [BLOCK % ("true", '[{"sig": [0], "matrix": [["1"]]}]')],
    "deeply-nested": EMBED + ["[" * 100000],
    "nan-torus-point": TORUS + ["--z", "[[NaN, 0]]"],
    "infinite-torus-point": TORUS + ["--z", "[[Infinity, 0]]"],
    "off-torus-point": TORUS + ["--z", "[[1.5, 0]]"],
    "far-off-torus-point": TORUS + ["--z", "[[2, 0]]"],
    # the shifted artifact would be rejected by the commands that consume it
    "ak-theta-beyond-limit": ["ak", "--k", "1000", "--theta", '{"head": [], "tail": 1000}'],
    "ak-char-beyond-limit": [
        "ak", "--k", "-1000", "--char", CHAR % (2, '[{"sig": [0, -1], "prob": "1"}]'),
    ],
    # an --output path that cannot be written
    "output-in-missing-directory": [
        "qdim", "--q", "1/2", "--sig", "[1, 0]", "--output", "/nonexistent/dir/x.json",
    ],
    "output-is-a-directory": ["qdim", "--q", "1/2", "--sig", "[1, 0]", "--output", "."],
}

CHAR_1200 = '{"level": 1200, "q": "99/100", "entries": [{"sig": %s, "prob": "1"}]}'
POINT_1000 = CHAR % (2, '[{"sig": [1000, 0], "prob": "1"}]')
POINT_LOW = CHAR % (2, '[{"sig": [0, -1000], "prob": "1"}]')
POINT_3 = CHAR % (3, '[{"sig": [1000, 0, -1000], "prob": "1"}]')
POINT_1200 = CHAR % (1200, '[{"sig": %s, "prob": "1"}]' % ([1] + [0] * 1199))


LEVEL_1 = CHAR % (1, '[{"sig": [0], "prob": "4/5"}, {"sig": [1], "prob": "1/5"}]')
BLOCK_1 = BLOCK % (1, '[{"sig": [0], "matrix": [["1"]]}]')
THETA_0 = '{"head": [], "tail": 0}'

# one small valid request per subcommand, with the layers it must leave unloaded
LAZY = {
    "qdim": (["qdim", "--q", "1/2", "--sig", "[2, 1, 0]"], {"characters", "boundary", "blocks"}),
    "schur-eval": (
        ["schur-eval", "--sig", "[1, 0]", "--points", '["1/2", "1/3"]'],
        {"characters", "boundary", "blocks"},
    ),
    "lr": (["lr", "--left", "[1, 0]", "--right", "[1, 0]"], {"characters", "boundary", "blocks"}),
    "cotransition": (["cotransition", "--q", "1/2", "--sig", "[1, 0]"], {"boundary", "blocks"}),
    "restrict": (["restrict", "--char", DELTA_10], {"boundary", "blocks"}),
    "tensor": (["tensor", "--left", DELTA_10, "--right", DELTA_10], {"boundary", "blocks"}),
    "sgf-eval": (
        ["sgf-eval", "--char", DELTA_10, "--points", '["1/2", "1/3"]'], {"boundary", "blocks"}
    ),
    "sgf-torus": (TORUS + ["--z", "[[0.6, 0.8]]"], {"boundary", "blocks"}),
    "coherent-check": (
        ["coherent-check", "--family", '{"q": "1/2", "levels": [%s, %s]}' % (LEVEL_1, DELTA_10)],
        {"boundary", "blocks"},
    ),
    "extreme": (THETA + [THETA_0], {"blocks"}),
    "ak": (["ak", "--k", "1", "--theta", THETA_0], {"blocks"}),
    "verify-corollary": (
        ["verify-corollary", "--q", "1/2", "--theta", THETA_0, "--k", "1",
         "--level", "1", "--trunc", "2"],
        {"blocks"},
    ),
    "kms-check": (["kms-check", "--state", DELTA_10, "--trials", "2"], {"boundary"}),
    "f-compat": (["f-compat", "--q", "1/2", "--sig", "[1, 0]"], {"characters", "boundary"}),
    "decompose": (["decompose", "--densities", BLOCK_1], {"characters", "boundary"}),
    "embed": (EMBED + [BLOCK_1], {"characters", "boundary"}),
}

# runs one request through the console-script entry point in a fresh
# interpreter, then prints its exit code, the qchar modules it loaded, and
# which of `dataclasses` and `inspect` it loaded beyond those the bare
# interpreter had already (site hooks may import them on some hosts)
LOADED = """
import sys
bare = set(sys.modules)
import contextlib, io, json
from qchar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
slow = sorted({"dataclasses", "inspect"} & (set(sys.modules) - bare))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qchar")), slow]))
"""


# a second entry for one signature, in each kind of document a command reads
REPEAT_CHAR = CHAR % (1, '[{"sig": [0], "prob": "1/2"}, {"sig": [0], "prob": "1"}]')
REPEAT_BLOCK = BLOCK % (1, '[{"sig": [0], "matrix": [["1/2"]]}, {"sig": [0], "matrix": [["1"]]}]')
REPEATS = {
    "restrict-char": (["restrict", "--char", REPEAT_CHAR], "character", [0]),
    "tensor-left": (
        ["tensor", "--left", CHAR % (1, '[{"sig": [0], "prob": "3"}, {"sig": [0], "prob": "1"}]'),
         "--right", CHAR % (1, ONE)],
        "character", [0],
    ),
    "sgf-eval-char": (["sgf-eval", "--char", REPEAT_CHAR, "--points", '["1/2"]'], "character", [0]),
    "kms-check-state": (["kms-check", "--state", REPEAT_CHAR, "--trials", "1"], "character", [0]),
    "kms-check-x": (
        ["kms-check", "--state", CHAR % (1, ONE), "--x", REPEAT_BLOCK,
         "--y", BLOCK % (1, '[{"sig": [0], "matrix": [["1"]]}]')],
        "block element", [0],
    ),
    "decompose-densities": (["decompose", "--densities", REPEAT_BLOCK], "block element", [0]),
    "embed-block": (EMBED + [REPEAT_BLOCK], "block element", [0]),
    "coherent-check-level-2": (
        ["coherent-check", "--family",
         '{"q": "1/2", "levels": [%s, %s]}' % (
             CHAR % (1, ONE),
             CHAR % (2, '[{"sig": [1, 0], "prob": "1/2"}, {"sig": [0, 0], "prob": "1/4"},'
                        ' {"sig": [1, 0], "prob": "1/4"}]'),
         )],
        "character", [1, 0],
    ),
}


# one request per way out of `main`: its reply, a failed verification (the
# identity density of side 2 is not proportional to F's eigenvalues), a
# handler error, an argparse usage error, answered as a handler error is,
# and a help request, which `main` prints and returns 0 for
IDENTITY_2 = BLOCK % (2, '[{"sig": [1, 0], "matrix": [["1/2", "0"], ["0", "1/2"]]}]')
OUTCOMES = {
    "exit-0": (["qdim", "--q", "1/2", "--sig", "[2, 1, 0]"], 0),
    "exit-1": (["decompose", "--densities", IDENTITY_2], 1),
    "exit-2": (["qdim", "--q", "3/2", "--sig", "[1, 0]"], 2),
    "usage": (["qdim", "--q", "1/2", "--sig", "[1, 0]", "extra"], 2),
    "help": (["qdim", "--help"], 0),
}

# every way to ask for help: qchar's, and each subcommand's
HELP_FORMS = [["--help"], ["-h"]] + [[name, "--help"] for name in LAZY]

# argparse usage errors beyond a missing value, a trailing token and an
# unknown subcommand (tested apart), each with a fragment of its message
# that reads the same on every supported Python
USAGE_ERRORS = {
    "unknown-flag": (
        ["qdim", "--q", "1/2", "--sig", "[1, 0]", "--nope", "1"],
        "unrecognized arguments: --nope 1",
    ),
    "missing-flag": (["qdim", "--q", "1/2"], "required: --sig"),
    "trunc-inf": (
        ["extreme", "--q", "1/2", "--theta", THETA_0, "--level", "1", "--trunc", "inf"],
        "argument --trunc: invalid int value",
    ),
    "seed-float": (
        ["kms-check", "--state", DELTA_10, "--seed", "1.5"], "argument --seed: invalid int value"
    ),
    "no-subcommand": ([], "required: command"),
}

# `python -m qchar.cli` or the console script named in pyproject.toml, run
# in this interpreter after an atexit hook is registered that prints how
# many objects the collector holds frozen as the last line of stderr
ENTRY = """
import atexit, gc, importlib, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
how = sys.argv.pop(1)
if how == "-m":
    runpy.run_module("qchar.cli", run_name="__main__", alter_sys=True)
else:
    module, _, name = how.partition(":")
    sys.exit(getattr(importlib.import_module(module), name)())
"""


def console_script() -> str:
    """The `module:function` that pyproject.toml installs as `qchar`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^qchar = "([\w.]+:\w+)"$', text, re.M).group(1)


def in_process_reply(argv) -> tuple:
    """(exit code, stdout, stderr) of `main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(reply) -> str:
    """The message of an (exit code, stdout, stderr) reply that must be an
    exit 2 with one JSON object, whose only key is "error", and no stderr."""
    code, out, err = reply
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert list(doc) == ["error"], doc
    return doc["error"]


class TestBasicCommands:
    def test_qdim(self, capsys):
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", "[1,0]")
        assert code == 0
        assert json.loads(out) == {"value": "5/2"}

    def test_sgf_torus_tests_points_at_the_stated_bound(self, capsys):
        # 5e-13 off the torus is within 1e-12; 2e-12 off is refused
        assert run_cli(capsys, *TORUS, "--z", "[[1.0000000000005, 0]]")[0] == 0
        code, out = run_cli(capsys, *TORUS, "--z", "[[1.000000000002, 0]]")
        assert code == 2
        assert json.loads(out) == {"error": "torus points must have unit modulus"}

    def test_schur_eval(self, capsys):
        code, out = run_cli(
            capsys, "schur-eval", "--sig", "[1,0]", "--points", '["3", "5"]'
        )
        assert code == 0
        assert json.loads(out) == {"value": "8"}

    def test_lr(self, capsys):
        code, out = run_cli(capsys, "lr", "--left", "[1,0]", "--right", "[1,0]")
        assert code == 0
        assert json.loads(out) == {
            "terms": [
                {"sig": [1, 1], "coeff": 1},
                {"sig": [2, 0], "coeff": 1},
            ]
        }

    def test_cotransition(self, capsys):
        code, out = run_cli(capsys, "cotransition", "--q", "1/2", "--sig", "[1,0]")
        assert code == 0
        assert json.loads(out) == {
            "rows": [
                {"sig": [0], "prob": "4/5"},
                {"sig": [1], "prob": "1/5"},
            ]
        }

    def test_sgf_torus(self, capsys):
        code, out = run_cli(
            capsys,
            "sgf-torus",
            "--char",
            DELTA_10,
            "--z",
            "[[1, 0], [-1, 0]]",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"]["re"] - (-0.6)) < 1e-12
        assert abs(payload["value"]["im"]) < 1e-12

    def test_sgf_torus_at_level_zero(self, capsys):
        # the point mass at the empty signature pairs to 1 with no torus points
        empty = CHAR % (0, '[{"sig": [], "prob": "1"}]')
        code, out = run_cli(capsys, "sgf-torus", "--char", empty, "--z", "[]")
        assert code == 0
        assert json.loads(out) == {"abs": 1.0, "value": {"im": 0.0, "re": 1.0}}

    def test_sgf_torus_past_the_float_range(self, capsys):
        # s_lam(1, 4, 16) at (300, 0, -300) and q = 1/2 is about 2^1200, past
        # the float range; the walk keeps no such number and answers
        code, out = run_cli(
            capsys,
            "sgf-torus",
            "--char",
            CHAR % (3, '[{"sig": [300, 0, -300], "prob": "1"}]'),
            "--z",
            "[[1, 0], [1, 0], [1, 0]]",
        )
        assert code == 0
        assert abs(json.loads(out)["abs"] - 1) <= 1e-12

    def test_determinism(self, capsys):
        _, first = run_cli(capsys, "qdim", "--q", "2/3", "--sig", "[2,1,0]")
        _, second = run_cli(capsys, "qdim", "--q", "2/3", "--sig", "[2,1,0]")
        assert first == second


class TestCollector:
    @pytest.mark.parametrize("argv, code", list(OUTCOMES.values()), ids=list(OUTCOMES))
    def test_main_leaves_the_collector_as_it_was(self, argv, code):
        # only the process entry freezes; an in-process caller keeps its collector
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert in_process_reply(argv)[0] == code
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


class TestFreshProcess:
    def test_import_leaves_numpy_unloaded(self):
        script = "import json, sys, qchar.cli; print(json.dumps(sorted(sys.modules)))"
        proc = run_fresh("-c", script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "numpy" not in loaded
        # nor a layer that only some subcommands call
        assert not {"qchar.blocks", "qchar.boundary", "qchar.characters"} & loaded

    @pytest.mark.parametrize("command", list(LAZY))
    def test_subcommand_loads_only_its_layers(self, command):
        argv, unloaded = LAZY[command]
        proc = run_fresh("-c", LOADED, *argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded, slow = json.loads(proc.stdout)
        assert code == 0
        assert not {f"qchar.{m}" for m in unloaded} & set(loaded), loaded
        assert slow == []
        if command == "qdim":
            assert loaded == [
                "qchar", "qchar.cli", "qchar.combinatorics", "qchar.jsonio", "qchar.schur"
            ]

    @pytest.mark.parametrize("outcome", list(OUTCOMES) + ["output-file"])
    @pytest.mark.parametrize("entry", ["module", "console-script"])
    def test_the_process_entry_freezes_after_the_reply(
        self, entry, outcome, tmp_path, monkeypatch
    ):
        # the entry froze the collector before exit, and its reply is main's,
        # help included, though each side reads a different terminal width
        argv, _ = OUTCOMES.get(outcome, OUTCOMES["exit-0"])

        def to_file(name):
            return ["--output", str(tmp_path / name)] if outcome == "output-file" else []

        monkeypatch.setenv("COLUMNS", "40")
        expected = in_process_reply(argv + to_file("main.json"))
        monkeypatch.setenv("COLUMNS", "200")
        how = "-m" if entry == "module" else console_script()
        proc = run_fresh("-c", ENTRY, how, *argv, *to_file("entry.json"), timeout=20)
        *err, frozen = proc.stderr.splitlines(keepends=True)
        assert int(frozen) > 0
        assert (proc.returncode, proc.stdout, "".join(err)) == expected
        if outcome == "output-file":
            written = (tmp_path / "entry.json").read_bytes()
            assert written and written == (tmp_path / "main.json").read_bytes()

    @pytest.mark.parametrize("argv", HELP_FORMS, ids=[" ".join(argv) for argv in HELP_FORMS])
    def test_help_is_a_reply(self, argv, monkeypatch):
        # `main` prints help at a fixed width and returns 0, raising nothing;
        # neither the caller's COLUMNS nor a fresh process changes a byte
        replies = set()
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            replies.add(in_process_reply(argv))
        [(code, out, err)] = replies
        assert (code, err) == (0, "") and out.startswith("usage: qchar")
        monkeypatch.setenv("COLUMNS", "60")
        proc = run_fresh("-m", "qchar.cli", *argv, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    def test_decompose_at_1200_levels(self):
        # the patterns of [0]*1200 are enumerated in a loop, not a call per level
        proc = run_fresh(
            "-m", "qchar.cli", "decompose", "--densities",
            '{"level": 1200, "q": "99/100", "blocks": [{"sig": %s, "matrix": [["1"]]}]}'
            % ([0] * 1200),
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "accepted": True, "coefficients": [{"sig": [0] * 1200, "coeff": "1"}]
        }

    @pytest.mark.parametrize(
        "parts", [[0] * 1200, [1] + [0] * 1198 + [-1]], ids=["pinned", "moving"]
    )
    def test_torus_pairing_at_1200_levels(self, parts):
        # the coefficients are pushed down the 1200 levels in a loop, not a
        # call per level, and the about 1200 coordinates that no state moves
        # cost no pass at any level
        proc = run_fresh(
            "-m", "qchar.cli", "sgf-torus",
            "--char", CHAR_1200 % parts, "--z", json.dumps([[1, 0]] * 1200),
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        if any(parts):
            assert abs(doc["abs"] - 1) <= 1e-12
        else:
            assert doc == {"abs": 1.0, "value": {"re": 1.0, "im": 0.0}}

    # `main` in a child whose address space is capped at 1 GiB
    CAPPED = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qchar.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    @pytest.mark.parametrize("command", ["extreme", "verify-corollary"])
    def test_a_constant_theta_at_a_billion_levels(self, command):
        # decided from theta alone, so the point mass prints under the cap;
        # a prefix of 10**9 parts exceeds it
        argv = [command, "--q", "1/2", "--theta", '{"head": [], "tail": 2}']
        argv += ["--level", "2", "--trunc", "1000000000"]
        if command == "verify-corollary":
            argv += ["--k", "1"]
        proc = run_fresh("-c", self.CAPPED, *argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        if command == "extreme":
            assert doc["truncation"] == 10**9
            assert doc["measure"]["entries"] == [{"sig": [2, 2], "prob": "1"}]
        else:
            assert doc["pass"] is True
            assert doc["lhs"] == doc["rhs"]
            assert doc["lhs"]["entries"] == [{"sig": [3, 3], "prob": "1"}]

    def test_running_out_of_memory_exits_two(self):
        # one level below a level-5 signature with gaps of 500: about
        # 6.3 * 10**10 states, far past the cap
        pytest.importorskip("resource")
        argv = ["cotransition", "--q", "9/10", "--sig", "[1000, 500, 0, -500, -1000]"]
        proc = run_fresh("-c", self.CAPPED, *argv, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout) == {"error": "input too large: out of memory"}

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
    )
    @pytest.mark.parametrize("command", ["extreme", "verify-corollary"])
    @pytest.mark.parametrize("q, trunc", [("1/2", 100000000), ("1/10", 2151)])
    def test_a_non_constant_theta_past_the_digit_limit_is_refused(self, command, q, trunc):
        # the answer at truncation 10**8 carries t^(10**8), and at q = 1/10
        # truncation 2151 is the first past the limit: refused from theta,
        # the level and q alone, under the cap and at once
        argv = [command, "--q", q, "--theta", '{"head": [0], "tail": 1}']
        argv += ["--level", "1", "--trunc", str(trunc)]
        if command == "verify-corollary":
            argv += ["--k", "1"]
        proc = run_fresh("-c", self.CAPPED, *argv, timeout=5)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {
            "error": f"input too large: the truncation-{trunc} approximant holds"
            " an integer of more than 4300 digits"
        }

    @pytest.mark.parametrize("trunc", ["21", "25"])
    def test_a_long_run_of_equal_head_entries_answers(self, trunc):
        # 20 zeros below theta_L = 1 at level 20: the determinant is 20 x 20,
        # and its 2^20 minors are never tabled
        pytest.importorskip("resource")
        argv = ["extreme", "--q", "1/2", "--theta", json.dumps({"head": [0] * 20, "tail": 1})]
        argv += ["--level", "20", "--trunc", trunc]
        proc = run_fresh("-c", self.CAPPED, *argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        entries = json.loads(proc.stdout)["measure"]["entries"]
        assert len(entries) == (2 if trunc == "21" else 6)

    @pytest.mark.parametrize("command", ["extreme", "verify-corollary"])
    @pytest.mark.parametrize("theta", ['{"head": [], "tail": 2}', '{"head": [0], "tail": 1}'])
    def test_a_level_past_the_longest_tuple_exits_two(self, command, theta):
        # refused before any tuple of that length is asked for, constant theta or not
        level = str(sys.maxsize + 1)
        argv = [command, "--q", "1/2", "--theta", theta, "--level", level, "--trunc", level]
        if command == "verify-corollary":
            argv += ["--k", "1"]
        proc = run_fresh("-c", self.CAPPED, *argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {
            "error": f"level {level} is beyond the longest signature, {sys.maxsize} parts"
        }

    def test_lr_with_a_1000_cell_strip(self):
        # one 1000-cell strip, built in a loop: the LR rule recurses neither per cell nor per row
        proc = run_fresh(
            "-m", "qchar.cli", "lr", "--left", "[0, 0]", "--right", "[1000, 0]", timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"terms": [{"sig": [1000, 0], "coeff": 1}]}

    def test_tensor_of_1200_row_point_masses(self):
        # the Pieri rule at 1200 rows: the LR rule visits rows in a loop, not a call per row
        proc = run_fresh(
            "-m", "qchar.cli", "tensor", "--left", POINT_1200, "--right", POINT_1200,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        half, lam = Fraction(1, 2), Signature((1,) + (0,) * 1199)
        pieri = [Signature((2,) + (0,) * 1199), Signature((1, 1) + (0,) * 1198)]
        expected = qchar.LevelCharacter(
            1200, half, {nu: qchar.qdim(nu, half) / qchar.qdim(lam, half) ** 2 for nu in pieri}
        )
        assert json.loads(proc.stdout) == character_to_json(expected)

    def test_constant_sequence_at_a_huge_truncation(self):
        proc = run_fresh(
            "-m", "qchar.cli", "extreme", "--q", "1/2", "--theta", '{"head": [], "tail": 0}',
            "--level", "2", "--trunc", "100000",
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["measure"]["entries"] == [{"sig": [0, 0], "prob": "1"}]

    def test_nonconstant_sequence_at_a_large_truncation(self):
        # the determinant reads theta's head and theta_400 only: no level-400
        # signature and no qdim of one is built
        proc = run_fresh(
            "-m", "qchar.cli", "extreme", "--q", "2/3", "--theta", '{"head": [-2, 0], "tail": 1}',
            "--level", "2", "--trunc", "400",
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)["measure"]["entries"]
        assert sum(jsonio.parse_scalar(e["prob"]) for e in entries) == 1

    @pytest.mark.parametrize("command", ["schur-eval", "sgf-eval"])
    def test_coincident_points_at_the_limit(self, command):
        # parts at the limit at coincident points: one 2x2 Jacobi-Trudi determinant,
        # where enumerating interlacing tuples would take about 10^6 steps per level
        sig, points = "[1000, 0, -1000]", '["1/2", "1/2", "-7/9"]'
        arg = ["--sig", sig]
        if command == "sgf-eval":
            arg = ["--char", CHAR % (3, '[{"sig": %s, "prob": "1"}]' % sig)]
        proc = run_fresh("-m", "qchar.cli", command, *arg, "--points", points, timeout=20)
        assert proc.returncode == 0, proc.stderr
        lam, half = Signature((1000, 0, -1000)), Fraction(1, 2)
        expected = qchar.schur_eval(lam, (half, half, Fraction(-7, 9)))
        if command == "sgf-eval":
            expected /= principal_specialization(lam, half)
        assert jsonio.parse_scalar(json.loads(proc.stdout)["value"]) == expected


class TestRoundTrips:
    def test_ak_output_at_the_limit_is_accepted_back(self, capsys):
        code, out = run_cli(capsys, "ak", "--k", "500", "--theta", '{"head": [], "tail": 500}')
        assert code == 0
        assert json.loads(out) == {"head": [], "tail": 1000}
        code, out = run_cli(capsys, *THETA, out)
        assert code == 0
        assert json.loads(out)["measure"]["entries"] == [{"sig": [1000], "prob": "1"}]

    def test_restrict_feeds_sgf_eval(self, capsys):
        code, out = run_cli(capsys, "restrict", "--char", DELTA_10)
        assert code == 0
        code, out2 = run_cli(
            capsys, "sgf-eval", "--char", out, "--points", '["3/2"]'
        )
        assert code == 0
        assert json.loads(out2) == {"value": "11/10"}

    def test_restrict_value_is_the_stability_identity(self, capsys):
        # the previous frozen value equals the level-2 function at (3/2, q^-2)
        code, out = run_cli(
            capsys, "sgf-eval", "--char", DELTA_10, "--points", '["3/2", "4"]'
        )
        assert code == 0
        assert json.loads(out) == {"value": "11/10"}

    def test_tensor_round_trip(self, capsys):
        code, out = run_cli(
            capsys, "tensor", "--left", DELTA_10, "--right", DELTA_10
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == [
            {"sig": [1, 1], "prob": "4/25"},
            {"sig": [2, 0], "prob": "21/25"},
        ]
        code, out2 = run_cli(capsys, "restrict", "--char", out)
        assert code == 0

    def test_extreme_output(self, capsys):
        code, out = run_cli(
            capsys,
            "extreme",
            "--q",
            "1/2",
            "--theta",
            '{"head": [0], "tail": 1}',
            "--level",
            "1",
            "--trunc",
            "3",
        )
        assert code == 0
        assert json.loads(out)["measure"]["entries"] == [
            {"sig": [0], "prob": "16/21"},
            {"sig": [1], "prob": "5/21"},
        ]

    def test_embed_output(self, capsys):
        block = '{"level": 1, "q": "1/2", "blocks": [{"sig": [1], "matrix": [["7"]]}]}'
        code, out = run_cli(
            capsys, "embed", "--block", block, "--targets", "[[1, 0]]"
        )
        assert code == 0
        assert json.loads(out)["blocks"] == [
            {"sig": [1, 0], "matrix": [["7", "0"], ["0", "0"]]}
        ]


class TestVerificationCommands:
    def test_verify_corollary_passes(self, capsys):
        code, out = run_cli(
            capsys,
            "verify-corollary",
            "--q",
            "1/2",
            "--theta",
            '{"head": [0], "tail": 1}',
            "--k",
            "3",
            "--level",
            "2",
            "--trunc",
            "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["gap"] == "0"

    def test_coherent_check(self, capsys):
        _, low = run_cli(capsys, "restrict", "--char", DELTA_10)
        family = json.dumps({"q": "1/2", "levels": [json.loads(low), json.loads(DELTA_10)]})
        code, out = run_cli(capsys, "coherent-check", "--family", family)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_coherent_check_failure_exits_one(self, capsys):
        bad_low = '{"level": 1, "q": "1/2", "entries": [{"sig": [0], "prob": "1"}]}'
        family = json.dumps(
            {"q": "1/2", "levels": [json.loads(bad_low), json.loads(DELTA_10)]}
        )
        code, out = run_cli(capsys, "coherent-check", "--family", family)
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["violation"] == {
            "level": 1,
            "sig": [0],
            "restricted_mass": "4/5",
            "stored_mass": "1",
        }

    def test_kms_check_explicit(self, capsys):
        x = '{"level": 2, "q": "1/2", "blocks": [{"sig": [1, 0], "matrix": [["0", "1"], ["0", "0"]]}]}'
        y = '{"level": 2, "q": "1/2", "blocks": [{"sig": [1, 0], "matrix": [["0", "0"], ["1", "0"]]}]}'
        code, out = run_cli(
            capsys, "kms-check", "--state", DELTA_10, "--x", x, "--y", y
        )
        assert code == 0
        assert json.loads(out) == {"pass": True, "lhs": "4/5", "rhs": "4/5"}

    def test_kms_check_seeded_trials_deterministic(self, capsys):
        code, out = run_cli(
            capsys, "kms-check", "--state", DELTA_10, "--trials", "5", "--seed", "9"
        )
        assert code == 0
        _, out2 = run_cli(
            capsys, "kms-check", "--state", DELTA_10, "--trials", "5", "--seed", "9"
        )
        assert out == out2
        assert json.loads(out)["pass"] is True

    def test_kms_check_trials_report_the_first_failure(self, capsys, monkeypatch):
        calls = []

        def fails_from_the_third_call(*args):
            calls.append(args)
            return len(calls) < 3

        monkeypatch.setattr(blocks, "kms_check", fails_from_the_third_call)
        code = main(["kms-check", "--state", DELTA_10, "--trials", "5"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert json.loads(captured.out) == {"pass": False, "trials": 5, "first_failure": 2}

    def test_kms_check_explicit_matches_the_matmul_path(self, capsys):
        # seeded level-3 elements on several blocks, some outside the state
        rng = random.Random(4242)
        q = Fraction(1, 2)
        chi = random_character(3, q, rng, max_support=4)
        sigs = rng.sample(list(iter_signatures(3, -2, 2)), 6)
        x = random_block_element(3, q, sigs[:4] + chi.support()[:1], rng)
        y = random_block_element(3, q, sigs[2:] + chi.support(), rng)
        lhs = char_state_eval(chi, x @ scaling(y, 1))
        rhs = char_state_eval(chi, y @ x)
        code, out = run_cli(
            capsys,
            "kms-check",
            "--state", json.dumps(character_to_json(chi)),
            "--x", json.dumps(block_to_json(x)),
            "--y", json.dumps(block_to_json(y)),
        )
        assert code == 0
        assert json.loads(out) == {
            "pass": True,
            "lhs": format_scalar(lhs),
            "rhs": format_scalar(rhs),
        }
        assert lhs != 0

    def test_f_compat(self, capsys, monkeypatch):
        code, out = run_cli(capsys, "f-compat", "--q", "1/2", "--sig", "[1,0]")
        assert code == 0
        assert json.loads(out)["pass"] is True
        # a violation is printed as its signature and pattern index
        report = blocks.FCompatReport(False, Signature((1,)), 1)
        monkeypatch.setattr(blocks, "check_f_compatibility", lambda nu, q: report)
        code, out = run_cli(capsys, "f-compat", "--q", "1/2", "--sig", "[1,0]")
        assert code == 1
        assert json.loads(out) == {"pass": False, "violation": {"sig": [1], "index": 1}}

    def test_decompose_accept_and_reject(self, capsys):
        good = (
            '{"level": 2, "q": "1/2", "blocks": [{"sig": [1, 0],'
            ' "matrix": [["1/5", "0"], ["0", "4/5"]]}]}'
        )
        code, out = run_cli(capsys, "decompose", "--densities", good)
        assert code == 0
        assert json.loads(out) == {
            "accepted": True,
            "coefficients": [{"sig": [1, 0], "coeff": "1"}],
        }
        bad = (
            '{"level": 2, "q": "1/2", "blocks": [{"sig": [1, 0],'
            ' "matrix": [["1/2", "0"], ["0", "1/2"]]}]}'
        )
        code, out = run_cli(capsys, "decompose", "--densities", bad)
        assert code == 1
        assert json.loads(out)["accepted"] is False

    def test_ak_on_theta_and_measure(self, capsys):
        code, out = run_cli(
            capsys, "ak", "--k", "-1", "--theta", '{"head": [0], "tail": 1}'
        )
        assert code == 0
        assert json.loads(out) == {"head": [-1], "tail": 0}
        code, out = run_cli(capsys, "ak", "--k", "2", "--char", DELTA_10)
        assert code == 0
        assert json.loads(out)["entries"] == [{"sig": [3, 2], "prob": "1"}]

    def test_ak_requires_exactly_one_input(self, capsys):
        code, out = run_cli(capsys, "ak", "--k", "1")
        assert code == 2
        assert "error" in json.loads(out)


class TestErrorPaths:
    def test_malformed_json_exits_two(self, capsys):
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", "[1, 0")
        assert code == 2
        assert "error" in json.loads(out)

    def test_q_out_of_range_exits_two(self, capsys):
        code, out = run_cli(capsys, "qdim", "--q", "3/2", "--sig", "[1,0]")
        assert code == 2
        assert "q must lie strictly between 0 and 1" in json.loads(out)["error"]

    def test_unknown_command_exits_two(self):
        error = usage_error(in_process_reply(["no-such-command"]))
        assert "invalid choice" in error and "no-such-command" in error
        # every subcommand is named; whether each choice is quoted differs
        # between Python versions
        choices = re.search(r"\(choose from (.*)\)$", error).group(1)
        assert [c.strip("'") for c in choices.split(", ")] == list(LAZY)

    @pytest.mark.parametrize("argv, fragment", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_a_usage_error_is_one_json_error(self, argv, fragment):
        assert fragment in usage_error(in_process_reply(argv))

    def test_recursion_error_exits_two(self, capsys, monkeypatch):
        # no request is known to recurse this deep; the handler stays as a guard
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_cmd_qdim", too_deep)
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", "[1,0]")
        assert code == 2
        assert json.loads(out) == {"error": "input too large: maximum recursion depth exceeded"}

    @pytest.mark.parametrize("argv", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_document_exits_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("argv, what, sig", list(REPEATS.values()), ids=list(REPEATS))
    def test_repeated_signature_exits_two(self, capsys, argv, what, sig):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"error": f"{what} entries repeat the signature {sig}"}

    @pytest.mark.parametrize(
        "sigs",
        [
            [[600, 0], [0, 0]],
            [[1000, 0], [0, 0]],
            [[-512] * 2],
            [[-537] * 2],
            [[-600] * 2],
            [[-400] * 3],
            [[-100] * 5],
        ],
        ids=["600", "1000", "-512x2", "-537x2", "-600x2", "-400x3", "-100x5"],
    )
    def test_torus_pairing_past_the_float_range_never_answers_wrong(self, capsys, sigs):
        # a valid character whose principal specialization at one signature
        # leaves the float range at q = 1/2, above or below (at [-512, -512]
        # through [-537, -537] s_lam(1, 4) is subnormal): the pairing answers
        # and meets its bound at (1, ..., 1)
        prob = format_scalar(Fraction(1, len(sigs)))
        entries = json.dumps([{"sig": s, "prob": prob} for s in sigs])
        level = len(sigs[0])
        z = json.dumps([[1, 0]] * level)
        code = main(["sgf-torus", "--char", CHAR % (level, entries), "--z", z])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - 1) <= 1e-12
        assert captured.err == ""

    def test_x_without_y_exits_two(self, capsys):
        code = main(["kms-check", "--state", DELTA_10, "--x", BLOCK % (2, "[]")])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {"error": "pass both --x and --y, or neither"}

    def test_a_torus_point_past_the_float_range_exits_two(self, capsys):
        # json reads 10**400 as an int, and complex() cannot convert it
        code = main(TORUS + ["--z", "[[%d, 0]]" % 10 ** 400])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {
            "error": "floating-point overflow: int too large to convert to float"
        }

    @pytest.mark.parametrize(
        "z, error",
        [
            # every pair's shape is checked before any coordinate's range
            ("[[%d, 0], [1]]" % 10**400, cli._TORUS_POINTS),
            # and the range before the point count, as when complex() raised
            (
                "[[1, 0], [0, %d]]" % -10**400,
                "floating-point overflow: int too large to convert to float",
            ),
            # a float past the range is read as inf, which is off the torus
            ("[[1e400, 0]]", "torus points must have unit modulus"),
            # so is a finite point whose modulus is past the range
            ("[[1.5e308, 1.5e308]]", "torus points must have unit modulus"),
            ("[[%d, %d]]" % (15 * 10**307, -15 * 10**307), "torus points must have unit modulus"),
            # the last int that complex() rounds to the largest float, and the first past it
            ("[[0, %d]]" % (2**1024 - 2**970 - 1), "torus points must have unit modulus"),
            (
                "[[0, %d]]" % (2**1024 - 2**970),
                "floating-point overflow: int too large to convert to float",
            ),
        ],
        ids=["shape-first", "range-before-count", "inf", "huge-float", "huge-int", "last", "edge"],
    )
    def test_torus_points_are_checked_in_order(self, capsys, z, error):
        code = main(TORUS + ["--z", z])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {"error": error}

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_two(self, capsys, trials):
        code, out = run_cli(
            capsys, "kms-check", "--state", DELTA_10, "--trials", trials
        )
        assert code == 2
        assert "--trials" in json.loads(out)["error"]


class TestNarrowedParser:
    """A request builds only the subparser it names; everything it prints,
    and its exit code, must be what the parser with all 16 subcommands gives."""

    outcome = staticmethod(in_process_reply)

    def full_outcome(self, argv):
        # the same `main`, with `build_parser` always building every subcommand
        full = cli.build_parser
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "build_parser", lambda only=None: full())
            return self.outcome(argv)

    def assert_same(self, argv):
        got = self.outcome(argv)
        assert got == self.full_outcome(argv)
        return got

    @pytest.mark.parametrize("name", list(LAZY))
    def test_valid_request(self, name):
        code, out, err = self.assert_same(LAZY[name][0])
        assert code in (0, 1) and json.loads(out) and err == ""

    @pytest.mark.parametrize("name", list(LAZY))
    def test_missing_value(self, name):
        # the last flag loses its value: an error of the subcommand's parser
        error = usage_error(self.assert_same(LAZY[name][0][:-1]))
        assert "expected one argument" in error

    @pytest.mark.parametrize("name", list(LAZY))
    def test_trailing_argument(self, name):
        error = usage_error(self.assert_same(LAZY[name][0] + ["extra"]))
        assert "unrecognized arguments: extra" in error

    @pytest.mark.parametrize("name", list(LAZY))
    def test_subcommand_help(self, name):
        code, out, err = self.assert_same([name, "--help"])
        assert code == 0 and err == ""
        assert out.startswith(f"usage: qchar {name} [-h] [--output OUTPUT]")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_top_level_lists_every_subcommand(self, argv):
        code, out, err = self.assert_same(argv)
        assert code == 0 and err == ""
        assert "{%s}" % ",".join(LAZY) in out

    def test_malformed_document_is_not_an_argparse_error(self):
        # a JSON error is the handler's, reported on stdout as before
        code, out, err = self.assert_same(MALFORMED["bool-parts"])
        assert code == 2 and "error" in json.loads(out) and err == ""

    def test_a_request_builds_two_parsers(self, monkeypatch, capsys):
        inits = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", "[2, 1, 0]")
        assert code == 0
        assert inits == ["qchar", "qchar qdim"]

    def test_every_subcommand_is_in_the_table(self):
        assert list(cli._COMMANDS) == list(LAZY)


class TestInputLimit:
    # jsonio.MAX_PART bounds signature parts, boundary-parameter entries and
    # --k; without it the first two requests run without bound
    @pytest.mark.parametrize(
        "argv",
        [
            ["qdim", "--q", "1/2", "--sig", "[100000000000, 0]"],
            ["extreme", "--q", "1/2", "--theta", '{"head": [0], "tail": 100000000000}',
             "--level", "1", "--trunc", "2"],
            ["verify-corollary", "--q", "1/2", "--theta", '{"head": [0], "tail": 1}',
             "--k", "100000000000", "--level", "1", "--trunc", "2"],
            # operands within the limit whose product is not: refused before
            # the product is built, which takes minutes and gigabytes
            ["tensor", "--left", POINT_3, "--right", POINT_3],
        ],
        ids=["qdim", "extreme", "verify-corollary", "tensor"],
    )
    def test_over_the_limit_exits_two_at_once(self, argv):
        proc = run_fresh("-m", "qchar.cli", *argv, timeout=5)
        assert proc.returncode == 2, proc.stderr
        assert "limit" in json.loads(proc.stdout)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["qdim", "--q", "1/2", "--sig", f"[{MAX_PART + 1}, 0]"],
            ["schur-eval", "--sig", f"[0, {-MAX_PART - 1}]", "--points", '["1", "2"]'],
            ["restrict", "--char", CHAR % (1, '[{"sig": [%d], "prob": "1"}]' % (MAX_PART + 1))],
            THETA + ['{"head": [%d], "tail": 0}' % (-MAX_PART - 1)],
            ["ak", "--k", str(MAX_PART + 1), "--theta", '{"head": [], "tail": 0}'],
        ],
        ids=["sig", "negative-sig", "char-entry", "theta-head", "ak-k"],
    )
    def test_one_past_the_limit_exits_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert "limit" in json.loads(out)["error"]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int-to-str digits"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["qdim", "--q", "1/2", "--sig", "[1000, 600, 200, -200, -600, -1000]"],
            ["extreme", "--q", "1/2", "--theta", '{"head": [-3, -1, 0, 2], "tail": 3}',
             "--level", "3", "--trunc", "1000"],
        ],
        ids=["qdim-level-6", "extreme-trunc-1000"],
    )
    def test_past_the_digit_limit_exits_two(self, argv):
        # valid requests whose exact answer has an integer of more than
        # 4300 decimal digits: Python refuses to print it, and the request
        # exits 2 with that message as its one JSON error
        proc = run_fresh("-m", "qchar.cli", *argv, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["error"]
        assert doc["error"].startswith("Exceeds the limit (4300 digits) for integer string conversion")

    def test_an_exponent_scalar_exits_two_at_once(self):
        # a decimal exponent is outside the scalar grammar; read by
        # `Fraction`, it would build 10**99999999 before any check
        proc = run_fresh(
            "-m", "qchar.cli", "qdim", "--q", "1e-99999999", "--sig", "[1, 0]", timeout=20
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["error"] and "1e-99999999" in doc["error"]

    def test_requests_at_the_limit_finish(self, capsys):
        m = MAX_PART
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", f"[{m}, 0, {-m}]")
        assert code == 0
        assert jsonio.parse_scalar(json.loads(out)["value"]) == qchar.qdim(
            Signature((m, 0, -m)), Fraction(1, 2)
        )
        code, out = run_cli(
            capsys, "schur-eval", "--sig", f"[{m}, 0, {-m}]", "--points", '["1/2", "2/3", "-7/9"]'
        )
        assert code == 0
        code, out = run_cli(
            capsys, "verify-corollary", "--q", "1/2", "--theta",
            '{"head": [%d], "tail": %d}' % (-m, 1 - m), "--k", str(m),
            "--level", "1", "--trunc", "2",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True
        code, out = run_cli(capsys, "lr", "--left", "[0, 0]", "--right", f"[{m}, 0]")
        assert code == 0
        assert json.loads(out) == {"terms": [{"sig": [m, 0], "coeff": 1}]}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["tensor", "--left", POINT_1000, "--right", POINT_1000],
             "product signature part 2000 is beyond the input limit |v| <= 1000"),
            (["tensor", "--left", POINT_LOW, "--right", POINT_LOW],
             "product signature part -2000 is beyond the input limit |v| <= 1000"),
            (["verify-corollary", "--q", "1/2", "--theta", '{"head": [], "tail": 1000}',
              "--k", "1000", "--level", "1", "--trunc", "1"],
             "shifted boundary parameter entry 2000 is beyond the input limit |v| <= 1000"),
            # the first term in ascending order is [1001, 999]
            (["lr", "--left", "[1000, 0]", "--right", "[1000, 0]"],
             "signature part 1001 is beyond the input limit |v| <= 1000"),
            (MALFORMED["ak-theta-beyond-limit"],
             "boundary parameter entry 2000 is beyond the input limit |v| <= 1000"),
            (MALFORMED["ak-char-beyond-limit"],
             "signature part -1001 is beyond the input limit |v| <= 1000"),
        ],
        ids=["tensor", "tensor-low", "verify-corollary", "lr", "ak-theta", "ak-char"],
    )
    def test_characters_past_the_limit_are_not_printed(self, capsys, argv, error):
        # the consuming commands would refuse each output: every printed
        # artifact is read back
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out) == {"error": error}

    @pytest.mark.parametrize("name", list(LAZY))
    def test_printed_signatures_and_parameters_are_read_back(self, capsys, name):
        code, out = run_cli(capsys, *LAZY[name][0])
        assert code == 0

        def read_back(node):
            if isinstance(node, dict):
                if "sig" in node:
                    jsonio.signature_from_json(node["sig"])
                if "head" in node:
                    jsonio.theta_from_json(node)
                node = list(node.values())
            if isinstance(node, list):
                for child in node:
                    read_back(child)

        read_back(json.loads(out))

    def test_a_product_at_the_limit_is_read_back(self, capsys):
        half = CHAR % (2, '[{"sig": [500, 0], "prob": "1"}]')
        code, out = run_cli(capsys, "tensor", "--left", half, "--right", half)
        assert code == 0
        product = json.loads(out)
        assert product["entries"][-1]["sig"] == [1000, 0]
        code, out = run_cli(capsys, "restrict", "--char", out)
        assert code == 0
        assert len(json.loads(out)["entries"]) == 1001


class TestFileArguments:
    def test_at_file_input(self, capsys, tmp_path):
        path = tmp_path / "char.json"
        path.write_text(DELTA_10, encoding="utf-8")
        code, out = run_cli(capsys, "restrict", "--char", f"@{path}")
        assert code == 0
        assert json.loads(out)["level"] == 1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run_cli(
            capsys, "qdim", "--q", "1/2", "--sig", "[1,0]", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8")) == {"value": "5/2"}

    def test_missing_at_file_exits_two(self, capsys, tmp_path):
        code, out = run_cli(capsys, "restrict", "--char", f"@{tmp_path}/nope.json")
        assert code == 2
        assert "error" in json.loads(out)


# ---------------------------------------------------------------- fuzzing
# Arbitrary JSON, block documents close enough to valid to reach the blocks
# layer, and valid ones, fed to every argument that takes a block element.

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
GOOD = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2"]) | st.integers(-3, 3)
SIGS = {1: [(0,), (1,), (-2,)], 2: [(0, 0), (1, 0), (2, 0)], 3: [(1, 0, 0), (1, 0, -1)]}


@st.composite
def valid_block_doc(draw, level=None, density=False):
    """A well-formed block element; with `density`, positive diagonals,
    symmetric off-diagonals and traces summing to 1."""
    level = level or draw(st.integers(1, 3))
    sigs = draw(st.lists(st.sampled_from(SIGS[level]), min_size=1, max_size=3, unique=True))
    coupled = draw(st.booleans())
    mats = []
    for s in sigs:
        d = dimension(Signature(s))
        m = [[Fraction(draw(GOOD)) for _ in range(d)] for _ in range(d)]
        if density:
            for i in range(d):
                m[i][i] = abs(m[i][i]) + 1
                for j in range(i):
                    m[i][j] = m[j][i] = m[j][i] if coupled else 0
        mats.append(m)
    total = sum(m[i][i] for m in mats for i in range(len(m))) if density else 1
    blocks = [
        {"sig": list(s), "matrix": [[format_scalar(v / total) for v in row] for row in m]}
        for s, m in zip(sigs, mats)
    ]
    return {"level": level, "q": draw(st.sampled_from(["1/2", "2/3"])), "blocks": blocks}


SCALAR = st.sampled_from(["0", "1", "1/2", "1/0", "x", ""]) | JSON
NEAR_BLOCK_DOC = st.fixed_dictionaries(
    {
        "level": st.integers(-1, 4) | JSON,
        "q": st.sampled_from(["1/2", "0", "1", "3/2"]) | JSON,
        "blocks": st.lists(
            st.fixed_dictionaries(
                {
                    "sig": st.lists(st.integers(-2, 2), max_size=4) | JSON,
                    "matrix": st.lists(st.lists(SCALAR, max_size=3), max_size=3) | JSON,
                }
            )
            | JSON,
            max_size=3,
        )
        | JSON,
    }
)
BLOCK_DOC = valid_block_doc() | NEAR_BLOCK_DOC | JSON
STATES = {
    1: CHAR % (1, '[{"sig": [1], "prob": "1"}]'),
    2: DELTA_10,
    3: CHAR % (3, '[{"sig": [1, 0, -1], "prob": "1/3"}, {"sig": [1, 0, 0], "prob": "2/3"}]'),
}
TARGETS = {1: "[[0, 0], [1, 0]]", 2: "[[1, 0, 0], [1, 0, -1]]", 3: "[[1, 0, 0, 0]]"}
LEVEL = st.sampled_from([1, 2, 3])
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _not_json(constant):
    raise AssertionError(f"{constant} is not JSON")


def _exit_code(argv):
    """Run the CLI in process: exit 0, 1 or 2 with one JSON document, and
    a JSON error on exit 2; any escaping exception fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue(), parse_constant=_not_json)
    assert (code == 2) == ("error" in payload)
    return code


class TestBlockArgumentFuzz:
    @FUZZ
    @given(level=LEVEL, data=st.data())
    def test_kms_check(self, level, data):
        docs = {"x": data.draw(valid_block_doc(level)), "y": data.draw(valid_block_doc(level))}
        broken = data.draw(st.sampled_from([None, "x", "y"]))
        if broken:
            docs[broken] = data.draw(BLOCK_DOC)
        x, y = docs["x"], docs["y"]
        _exit_code(
            ["kms-check", "--state", STATES[level], f"--x={json.dumps(x)}", f"--y={json.dumps(y)}"]
        )

    @FUZZ
    @given(densities=valid_block_doc(density=True) | BLOCK_DOC)
    def test_decompose(self, densities):
        _exit_code(["decompose", f"--densities={json.dumps(densities)}"])

    @FUZZ
    @given(level=LEVEL, data=st.data())
    def test_embed(self, level, data):
        block = data.draw(valid_block_doc(level) | BLOCK_DOC)
        _exit_code(["embed", "--targets", TARGETS[level], f"--block={json.dumps(block)}"])


# Each subcommand's well-formed request from LAZY with one malformation, each
# an argparse usage error: a required flag dropped, the last value dropped, an
# unknown flag or a bare token appended, or an int flag given a non-integer.

@st.composite
def malformed_argv(draw):
    name = draw(st.sampled_from(list(LAZY)))
    argv = list(LAZY[name][0])
    flags = cli._COMMANDS[name][1]
    required = [f for f, options in flags.items() if options.get("required")]
    ints = [f for f, options in flags.items() if options.get("type") is int]
    kinds = ["drop-flag", "drop-value", "flag", "token"] + (["int"] if ints else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "drop-flag":
        i = argv.index(draw(st.sampled_from(required)))
        del argv[i:i + 2]
    elif kind == "drop-value":
        argv.pop()
    elif kind == "flag":
        argv.append("--nope")
    elif kind == "token":
        argv.append(draw(st.sampled_from(["extra", "qdim", "1/2", "[]"])))
    else:
        flag, value = draw(st.sampled_from(ints)), draw(st.sampled_from(["inf", "1.5", "x"]))
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


class TestArgvFuzz:
    @FUZZ
    @given(argv=malformed_argv())
    def test_a_malformed_argv_exits_two(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _exit_code(argv)
        assert (code, err.getvalue()) == (2, "")


# Parameter sequences and signatures, valid, near-valid and arbitrary, fed to
# the commands that read them.  Parts and integers stay small: a valid
# signature with a part of 10**18 is a well-formed request whose work grows
# with that part, not a malformed one.

SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
PART = st.integers(-3, 3)
VALID_THETA = st.lists(PART, max_size=4).flatmap(
    lambda head: st.fixed_dictionaries(
        {"head": st.just(sorted(head)), "tail": st.integers(max(head, default=-3), 3)}
    )
)
THETA_DOC = (
    VALID_THETA
    | st.fixed_dictionaries(
        {"head": st.lists(PART | SMALL_JSON, max_size=4) | SMALL_JSON, "tail": PART | SMALL_JSON}
    )
    | SMALL_JSON
)
SIG_DOC = (
    st.lists(PART, max_size=4).map(lambda p: sorted(p, reverse=True))
    | st.lists(PART | SMALL_JSON, max_size=4)
    | SMALL_JSON
)
Q = st.sampled_from(["1/2", "2/3", "99/100"]) | st.sampled_from(
    ["0", "1", "3/2", "-1/2", "x", "1/0", ""]
)
K = st.integers(-3, 3)


class TestThetaAndSigFuzz:
    @FUZZ
    @given(theta=THETA_DOC, q=Q, level=st.integers(-1, 3), extra=st.integers(-1, 3))
    def test_extreme(self, theta, q, level, extra):
        _exit_code(
            ["extreme", f"--q={q}", f"--theta={json.dumps(theta)}",
             f"--level={level}", f"--trunc={level + extra}"]
        )

    @FUZZ
    @given(theta=THETA_DOC, k=K)
    def test_ak(self, theta, k):
        _exit_code(["ak", f"--k={k}", f"--theta={json.dumps(theta)}"])

    @FUZZ
    @given(theta=THETA_DOC, q=Q, k=K, level=st.integers(-1, 3), extra=st.integers(-1, 3))
    def test_verify_corollary(self, theta, q, k, level, extra):
        _exit_code(
            ["verify-corollary", f"--q={q}", f"--theta={json.dumps(theta)}", f"--k={k}",
             f"--level={level}", f"--trunc={level + extra}"]
        )

    @FUZZ
    @given(sig=SIG_DOC, q=Q)
    def test_qdim(self, sig, q):
        _exit_code(["qdim", f"--q={q}", f"--sig={json.dumps(sig)}"])


# Points, torus points, characters, families and targets, valid, near-valid
# and arbitrary, fed to the commands that read them.  Exact points repeat
# and change sign; torus coordinates include NaN and the infinities.

POINT = st.sampled_from(["1/2", "2/4", "-1/2", "3", "-5/7", "9/4", "1"])
BAD_POINT = st.sampled_from(["0", "0/3", "1/0", "x", ""]) | SMALL_JSON


def points_doc(level):
    return (
        st.lists(POINT, min_size=level, max_size=level)
        | st.lists(POINT | BAD_POINT, max_size=4)
        | SMALL_JSON
    )


@st.composite
def valid_char_doc(draw, level=None):
    level = level if level is not None else draw(st.integers(1, 3))
    sigs = draw(st.lists(st.sampled_from(list(iter_signatures(level, -2, 2))),
                         min_size=1, max_size=3, unique=True))
    raw = [Fraction(draw(st.integers(1, 9))) for _ in sigs]
    entries = [
        {"sig": list(s.parts), "prob": format_scalar(w / sum(raw))}
        for s, w in sorted(zip(sigs, raw), key=lambda sw: sw[0].parts)
    ]
    return {"level": level, "q": draw(st.sampled_from(["1/2", "2/3", "99/100"])), "entries": entries}


NEAR_CHAR_DOC = st.fixed_dictionaries(
    {
        "level": st.integers(-1, 4) | SMALL_JSON,
        "q": Q | SMALL_JSON,
        "entries": st.lists(
            st.fixed_dictionaries(
                {"sig": SIG_DOC, "prob": st.sampled_from(["1", "1/2", "0", "-1", "2", "x"]) | SMALL_JSON}
            )
            | SMALL_JSON,
            max_size=3,
        )
        | SMALL_JSON,
    }
)


def char_doc(level):
    return valid_char_doc(level) | NEAR_CHAR_DOC | SMALL_JSON


UNIT = st.sampled_from([[1, 0], [0, 1], [-1, 0], [0, -1], [0.6, 0.8], [-0.8, 0.6]])
NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
COORD = NONFINITE | st.floats() | st.integers(-2, 2)


def torus_doc(level):
    return (
        st.lists(UNIT, min_size=level, max_size=level)
        | st.lists(UNIT | st.tuples(NONFINITE, st.just(0)).map(list), min_size=level, max_size=level)
        | st.lists(UNIT | st.lists(COORD, min_size=2, max_size=2), min_size=level, max_size=level)
        | st.lists(st.lists(COORD | SMALL_JSON, max_size=3) | SMALL_JSON, max_size=4)
        | SMALL_JSON
    )


TARGETS_DOC = (
    st.lists(st.lists(PART, min_size=2, max_size=2).map(lambda p: sorted(p, reverse=True)), max_size=3)
    | st.lists(SIG_DOC, max_size=3)
    | SMALL_JSON
)
BLOCK_1 = BLOCK % (1, '[{"sig": [0], "matrix": [["1/2"]]}, {"sig": [1], "matrix": [["3"]]}]')


@st.composite
def family_doc(draw):
    """A coherent family (levels 1..n from one restricted character), a
    perturbed or mismatched one, or arbitrary JSON."""
    top = draw(valid_char_doc())
    levels = [jsonio.character_from_json(top)]
    while levels[0].level > 1:
        levels.insert(0, qchar.restrict(levels[0]))
    docs = [character_to_json(chi) for chi in levels]
    change = draw(st.sampled_from([None, "drop", "swap", "replace"]))
    if change == "drop" and len(docs) > 1:
        docs.pop(0)
    elif change == "swap" and len(docs) > 1:
        docs.reverse()
    elif change == "replace":
        i = draw(st.integers(0, len(docs) - 1))
        docs[i] = draw(char_doc(i + 1))
    return {"q": draw(st.sampled_from([top["q"], "1/2"]) | SMALL_JSON), "levels": docs}


class TestPointsTorusCharFuzz:
    @FUZZ
    @given(sig=st.lists(PART, max_size=4).map(lambda p: sorted(p, reverse=True)) | SIG_DOC,
           data=st.data())
    def test_schur_eval(self, sig, data):
        level = len(sig) if isinstance(sig, list) else 2
        points = data.draw(points_doc(level))
        _exit_code(["schur-eval", f"--sig={json.dumps(sig)}", f"--points={json.dumps(points)}"])

    @FUZZ
    @given(level=st.integers(1, 3), data=st.data())
    def test_sgf_eval(self, level, data):
        char, points = data.draw(char_doc(level)), data.draw(points_doc(level))
        _exit_code(["sgf-eval", f"--char={json.dumps(char)}", f"--points={json.dumps(points)}"])

    @FUZZ
    @given(level=st.integers(1, 3), data=st.data())
    def test_sgf_torus(self, level, data):
        # mostly valid characters, so that the torus points reach the pairing
        char = data.draw(valid_char_doc(level) | char_doc(level))
        z = data.draw(torus_doc(level))
        _exit_code(["sgf-torus", f"--char={json.dumps(char)}", f"--z={json.dumps(z)}"])

    @FUZZ
    @given(level=st.integers(1, 3), data=st.data())
    def test_restrict(self, level, data):
        _exit_code(["restrict", f"--char={json.dumps(data.draw(char_doc(level)))}"])

    @FUZZ
    @given(level=st.integers(1, 3), k=K, data=st.data())
    def test_ak(self, level, k, data):
        _exit_code(["ak", f"--k={k}", f"--char={json.dumps(data.draw(char_doc(level)))}"])

    @FUZZ
    @given(family=family_doc() | SMALL_JSON)
    def test_coherent_check(self, family):
        _exit_code(["coherent-check", f"--family={json.dumps(family)}"])

    @FUZZ
    @given(targets=TARGETS_DOC)
    def test_embed_targets(self, targets):
        _exit_code(["embed", f"--block={BLOCK_1}", f"--targets={json.dumps(targets)}"])
