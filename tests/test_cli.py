import contextlib
import io
import json
import os
import random
import subprocess
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
    iter_signatures,
    random_block_element,
    scaling,
)
from qchar.cli import main
from qchar.jsonio import block_to_json, character_to_json, format_scalar

from helpers import random_character

DELTA_10 = '{"level": 2, "q": "1/2", "entries": [{"sig": [1, 0], "prob": "1"}]}'
CHAR = '{"level": %s, "q": "1/2", "entries": %s}'
BLOCK = '{"level": %s, "q": "1/2", "blocks": %s}'
ONE = '[{"sig": [0], "prob": "1"}]'
THETA = ["extreme", "--q", "1/2", "--level", "1", "--trunc", "2", "--theta"]
EMBED = ["embed", "--targets", "[[0, 0]]", "--block"]

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
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_fresh(*argv, timeout):
    """Run `python *argv` in a new interpreter that imports this checkout's qchar."""
    src = str(Path(qchar.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestBasicCommands:
    def test_qdim(self, capsys):
        code, out = run_cli(capsys, "qdim", "--q", "1/2", "--sig", "[1,0]")
        assert code == 0
        assert json.loads(out) == {"value": "5/2"}

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

    def test_determinism(self, capsys):
        _, first = run_cli(capsys, "qdim", "--q", "2/3", "--sig", "[2,1,0]")
        _, second = run_cli(capsys, "qdim", "--q", "2/3", "--sig", "[2,1,0]")
        assert first == second


class TestFreshProcess:
    def test_import_leaves_numpy_unloaded(self):
        proc = run_fresh("-c", "import sys, qchar.cli; print('numpy' in sys.modules)", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_constant_sequence_at_a_huge_truncation(self):
        proc = run_fresh(
            "-m", "qchar.cli", "extreme", "--q", "1/2", "--theta", '{"head": [], "tail": 0}',
            "--level", "2", "--trunc", "100000",
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["measure"]["entries"] == [{"sig": [0, 0], "prob": "1"}]


class TestRoundTrips:
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

    def test_kms_check_explicit_matches_the_matmul_path(self, capsys):
        # seeded level-3 elements on several blocks, some outside the state
        rng = random.Random(4242)
        q = Fraction(1, 2)
        chi = random_character(3, q, rng, max_support=4)
        sigs = rng.sample(list(iter_signatures(3, -2, 2)), 6)
        x = random_block_element(3, q, sigs[:4] + chi.support()[:1], rng, density=0.6)
        y = random_block_element(3, q, sigs[2:] + chi.support(), rng, density=0.6)
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

    def test_f_compat(self, capsys):
        code, out = run_cli(capsys, "f-compat", "--q", "1/2", "--sig", "[1,0]")
        assert code == 0
        assert json.loads(out)["pass"] is True

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

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_document_exits_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_two(self, capsys, trials):
        code, out = run_cli(
            capsys, "kms-check", "--state", DELTA_10, "--trials", trials
        )
        assert code == 2
        assert "--trials" in json.loads(out)["error"]


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


def _exit_code(argv):
    """Run the CLI in process: exit 0, 1 or 2 with one JSON document, and
    a JSON error on exit 2; any escaping exception fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue())
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
