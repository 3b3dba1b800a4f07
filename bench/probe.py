"""Measurements that need a fresh interpreter, and the golden writer.

    python3 bench/probe.py setup <workload> <seed> <count>
        import qchar and generate the first <count> ops; prints
        {"import_s": ..., "setup_s": ...}
    python3 bench/probe.py ref <case>
        time one fixed reference case (extreme_L6, extreme_L8, extreme_L10,
        kms200_d27) with cold caches; prints {"seconds": ..., "ok": ...}
    python3 bench/probe.py goldens
        rewrite bench/goldens.json from the default seed

The benchmark always runs the program from the checkout it lives in:
`use_checkout` puts <checkout>/src first on the path and refuses any other
qchar.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDENS = BENCH / "goldens.json"
GOLDEN_OPS = 300
DEFAULT_SEED = 0


# Host calibration.  This benchmark runs on shared virtual machines whose
# speed drifts by up to 1.8x over seconds to minutes (other tenants), which
# no affordable run length averages out.  Timings are therefore scaled by
# the host's current speed on a fixed loop of small Fraction operations,
# the kind of work the program does: calibrated time = wall time *
# CAL_REF_NS / (mean of CAL_LOOPS loop timings taken just before).  A value
# reads as wall time on a host where the loop takes CAL_REF_NS.  The mean,
# not the fastest, so that contention that comes and goes within
# milliseconds is counted in the share the ops also see.
CAL_REF_NS = 1_700_000
CAL_LOOPS = 4


def _cal_ns() -> int:
    start = time.perf_counter_ns()
    acc = 0
    for k in range(1, 200):
        x = Fraction(k, k + 1) * Fraction(k + 2, k + 3) + Fraction(1, k)
        acc += x.numerator & 7
    return time.perf_counter_ns() - start


def host_factor() -> float:
    """Multiply a wall time taken now by this to calibrate it."""
    return CAL_REF_NS * CAL_LOOPS / sum(_cal_ns() for _ in range(CAL_LOOPS))


# A `cli` request is a fresh interpreter, whose start-up follows the host's
# process and page-cache costs more than the Fraction loop.  Each request is
# therefore paired with a bare interpreter started just before it, and
# calibrated by SPAWN_REF_NS / (that start-up time): it reads as wall time
# on a host where `python -c pass` takes SPAWN_REF_NS.
SPAWN_REF_NS = 60_000_000


def spawn_factor(env) -> float:
    """Multiply the wall time of a child interpreter started now by this."""
    start = time.perf_counter_ns()
    # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return SPAWN_REF_NS / (time.perf_counter_ns() - start)


def use_checkout():
    """Import qchar from <checkout>/src; exit 2 if it is not there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import qchar
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import qchar from {SRC}: {exc}\n")
        sys.exit(2)
    if Path(qchar.__file__).resolve().parent != SRC / "qchar":
        sys.stderr.write(f"bench: qchar resolves to {qchar.__file__}, not to {SRC}\n")
        sys.exit(2)
    return qchar


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup(workload, seed, count):
    before = host_factor()
    start = time.perf_counter()
    use_checkout()
    imported = time.perf_counter()
    import workloads

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as files:
        workloads.generate(workload, seed, count, files)
        done = time.perf_counter()
    factor = (before + host_factor()) / 2
    return {"import_s": (imported - start) * factor, "setup_s": (done - start) * factor,
            "raw_setup_s": done - start}


REF_THETA = ((-3, -2, -1, 0, 1), 4)
REF_SUPPORT = {6: 66, 8: 110, 10: 110}


def _ref(case):
    use_checkout()
    import random

    from qchar import blocks, boundary
    from qchar.characters import indecomposable
    from qchar.combinatorics import BoundaryParam, Signature

    import workloads

    q = Fraction(1, 2)
    before = host_factor()
    if case.startswith("extreme_L"):
        trunc = int(case[len("extreme_L"):])
        theta = BoundaryParam(*REF_THETA)
        start = time.perf_counter()
        approx = boundary.extreme_character(theta, 3, trunc, q)
        seconds = time.perf_counter() - start
        ok = len(approx.measure.weights) == REF_SUPPORT[trunc] and sum(approx.measure.weights.values()) == 1
    elif case == "kms200_d27":
        sig = Signature((2, 0, -2))
        chi = indecomposable(sig, q)
        rng = random.Random(0)
        pairs = [(workloads.block_element(rng, 3, q, [sig]), workloads.block_element(rng, 3, q, [sig])) for _ in range(200)]
        start = time.perf_counter()
        verdicts = [blocks.kms_check(chi, x, y) for x, y in pairs]
        seconds = time.perf_counter() - start
        ok = all(verdicts)
    else:
        raise SystemExit(f"unknown reference case {case!r}")
    return {"seconds": seconds * (before + host_factor()) / 2, "ok": ok}


def _goldens():
    use_checkout()
    import run
    import workloads

    out = {}
    WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as files:
            ops = workloads.generate(name, DEFAULT_SEED, GOLDEN_OPS, files)
            digests = []
            for op in ops:
                result = run.execute(name, op, traced=True)
                problem = run.check(name, op, result)
                # a documented defect leaves the exact part of the result goldened
                digests.append(None if problem and not problem.known else run.digest(op, result))
        out[name] = digests
        print(name, sum(d is not None for d in digests), "goldens", file=sys.stderr)
    GOLDENS.write_text(json.dumps(out, indent=0) + "\n")


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        print(json.dumps(_setup(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
    elif mode == "ref":
        print(json.dumps(_ref(sys.argv[2])))
    elif mode == "goldens":
        _goldens()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
