"""Run one benchmark workload, check every output, print its metrics.

    python3 bench/run.py --workload boundary --seed 1 --seconds 15 --trace 0

Workloads: boundary, blocks, fusion, cli (see workloads.py for what each
stresses and why).  With --trace 0 the timed loop runs untraced for
--seconds of op time (and at least MIN_OPS ops) and the end-to-end metrics
are printed; with --trace 1 a fixed number of ops, sized from --seconds,
runs under the span tracer and the per-layer metrics are printed.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it gives sample counts, failures by
kind and digests of the inputs and outputs.

Every op's output is checked outside its timed span: invariants on every
seed, and sha256 digests against goldens.json on the default seed.  An op
that hits a documented defect (Problem.known) is tallied by defect in the
detail line and lowers `ok_ratio`; any other failure counts in `failed`
and makes `correct` false.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import probe

probe.use_checkout()

from qchar import jsonio  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3
# pool size per second of run: comfortably above the fastest rate seen
POOL_RATE = {"boundary": 100, "blocks": 80, "fusion": 300, "cli": 10}
# traced ops per second of run: fixed, so that traced counts repeat exactly
TRACE_RATE = {"boundary": 20, "blocks": 25, "fusion": 200, "cli": 60}
REF_CASES = ("extreme_L6", "extreme_L8", "extreme_L10", "kms200_d27")

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "combinatorics.enumerate_down.calls": "count",
    "combinatorics.gt_patterns.count": "count",
    "combinatorics.self_ms": "ms",
    "schur.qdim.calls": "count",
    "schur.qdim.hit_ratio": "ratio",
    "schur.schur_eval.calls": "count",
    "schur.schur_eval.fallback_share": "ratio",
    "schur.lr_coefficients.self_ms": "ms",
    "schur.self_ms": "ms",
    "characters.restrict.calls": "count",
    "characters.restrict.self_ms": "ms",
    "characters.restrict.support_max": "count",
    "characters.tensor.self_ms": "ms",
    "characters.sgf_eval_torus.max_err": "abs",
    "characters.self_ms": "ms",
    "boundary.extreme_character.self_ms": "ms",
    "boundary.levels_pushed": "count",
    "boundary.result_max_bits": "bits",
    "boundary.self_ms": "ms",
    "blocks.matmul.calls": "count",
    "blocks.matmul.mults_computed": "count",
    "blocks.kms_check.self_ms": "ms",
    "blocks.scaling.self_ms": "ms",
    "blocks.char_state_eval.self_ms": "ms",
    "blocks.decompose_state.self_ms": "ms",
    "blocks.self_ms": "ms",
    "jsonio.parse_ms": "ms",
    "jsonio.emit_ms": "ms",
    "jsonio.bytes_out": "bytes",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.exit_mismatch": "count",
    "boundary.extreme_L6_ms": "ms",
    "boundary.extreme_L8_ms": "ms",
    "boundary.extreme_L10_ms": "ms",
    "blocks.kms200_d27_s": "s",
    "trace.ops_per_s": "1/s",
    "host.spin_ms": "ms",
    "workload.repeat_share": "ratio",
}


def execute(workload, op, traced):
    """The timed call: one op, or one CLI request (in process when traced)."""
    if workload == "cli":
        argv = op.args[0]
        return workloads.in_process(argv) if traced else workloads.spawn(argv, probe.child_env())
    try:
        return op.kind.run(*op.args)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return exc


def check(workload, op, result, reference=None):
    if isinstance(result, Exception):
        return workloads.Problem(f"{op.kind.name} raised {result!r}")
    if workload == "cli":
        return workloads.check_cli(op.args, result, reference)
    return op.kind.check(op.args, result)


def digest(op, result) -> str | None:
    if isinstance(result, Exception):
        return None
    payload = op.kind.payload(op.args, result)
    return None if payload is None else hashlib.sha256(jsonio.dumps(payload).encode()).hexdigest()


def spin_ms() -> float:
    """A fixed pure-Python loop, to tell a slow host from a slow program."""
    start = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return (time.perf_counter() - start) * 1e3


def _setup_probes(workload, seed, count):
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(probe.BENCH / "probe.py"), "setup", workload, str(seed), str(count)],
            capture_output=True, text=True, env=probe.child_env(), check=True, timeout=120,
        )
        runs.append(json.loads(out.stdout))
    return runs


def _ref_cases():
    out = {}
    for case in REF_CASES:
        res = subprocess.run(
            [sys.executable, str(probe.BENCH / "probe.py"), "ref", case],
            capture_output=True, text=True, env=probe.child_env(), check=True, timeout=120,
        )
        out[case] = json.loads(res.stdout)
    return out


class Outcome:
    """Per-run bookkeeping of checks, digests and failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.goldens = []
        if seed == probe.DEFAULT_SEED and probe.GOLDENS.exists():
            self.goldens = json.loads(probe.GOLDENS.read_text()).get(workload, [])
        self.digests = []
        self.failed = 0
        self.defects = 0
        self.known = {}
        self.problems = []
        self.golden_checked = 0
        self.exit_mismatch = 0
        self.torus_err = 0.0
        self.result_bits = 0

    def record(self, op, result, reference=None):
        problem = check(self.workload, op, result, reference)
        if op.index < probe.GOLDEN_OPS:  # digests cover the golden prefix only
            dig = digest(op, result)
            self.digests.append(dig)
            golden = self.goldens[op.index] if op.index < len(self.goldens) else None
            if golden is not None:
                self.golden_checked += 1
                if dig != golden and problem is None:
                    problem = workloads.Problem(f"op {op.index} ({op.kind.name}) differs from its golden")
        self.note(op, result)
        self.record_failure(problem)

    def note(self, op, result):
        if isinstance(result, Exception):
            return
        if self.workload == "cli" and result.code != op.args[1]:
            self.exit_mismatch += 1
        if self.workload == "fusion":
            self.torus_err = max(self.torus_err, workloads.torus_error(result))
        if self.workload == "boundary":
            self.result_bits = max(self.result_bits, workloads.boundary_result_bits(result))

    def record_failure(self, problem):
        if problem is None:
            return
        if problem.known:
            self.defects += 1
            self.known[problem.known] = self.known.get(problem.known, 0) + 1
        else:
            self.failed += 1
            self.problems.append(problem.message)

    @property
    def correct(self) -> bool:
        return not self.problems


CAL_EVERY_NS = 100_000_000


class Timing:
    """Per-op wall times and their host-calibrated values (see probe.py)."""

    def __init__(self):
        self.wall_ns = []
        self.factors = []

    def add(self, took, factor):
        self.wall_ns.append(took)
        self.factors.append(factor)

    def calibrated(self) -> list:
        return [w * f for w, f in zip(self.wall_ns, self.factors)]

    def summary(self, values) -> dict:
        ms = sorted(v / 1e6 for v in values)
        p90 = statistics.quantiles(ms, n=10)[8]
        return {"p50": statistics.median(ms), "p90": p90, "beyond_p90": sum(v > p90 for v in ms),
                "ops_per_s": len(ms) / (sum(ms) / 1e3)}


def _loop(workload, ops, seconds, outcome, spans=None):
    """Closed loop, one client.  The clock runs only while an op is in
    flight; the host is calibrated between ops, at most every 100 ms of op
    time, and never inside an op.  A spawned `cli` request is calibrated by
    a bare interpreter started just before it."""
    timing = Timing()
    rss_kb = 0
    since_cal = CAL_EVERY_NS
    paired = workload == "cli" and spans is None
    env = probe.child_env()
    for op in ops:
        if paired:
            factor = probe.spawn_factor(env)
        elif since_cal >= CAL_EVERY_NS:
            factor, since_cal = probe.host_factor(), 0
        if spans is not None:
            spans.open_op(op.index)
        start = time.perf_counter_ns()
        result = execute(workload, op, spans is not None)
        took = time.perf_counter_ns() - start
        if spans is not None:
            spans.close_op()
        timing.add(took, factor)
        since_cal += took
        reference = None
        if workload == "cli":
            rss_kb = max(rss_kb, result.peak_rss_kb)
            if spans is None and not op.args[2]:
                reference = workloads.in_process(op.args[0])
        outcome.record(op, result, reference)
        if spans is None and sum(timing.wall_ns) >= seconds * 1e9 and len(timing.wall_ns) >= MIN_OPS:
            break
    return timing, rss_kb


def _repeat_share(ops) -> float:
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats / len(ops)


def run(workload, seed, seconds, trace):
    spins = [spin_ms() for _ in range(3)]
    pool = MIN_OPS + seconds * (TRACE_RATE if trace else POOL_RATE)[workload]
    setups = _setup_probes(workload, seed, pool)
    probe.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=probe.WORK) as files:
        ops = workloads.generate(workload, seed, pool, files)
        outcome = Outcome(workload, seed)
        if trace:
            ops = ops[: seconds * TRACE_RATE[workload]]
            spans = tracer.Tracer()
            spans.install()
            try:
                timing, _ = _loop(workload, ops, seconds, outcome, spans)
            finally:
                spans.uninstall()
            spans.dump(str(probe.WORK / f"spans-{workload}-{seed}.json"))
        else:
            timing, rss_kb = _loop(workload, ops, seconds, outcome)
    spins += [spin_ms() for _ in range(3)]
    ran = ops[: len(timing.wall_ns)]
    cal = timing.summary(timing.calibrated())
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops": len(ran),
        "p90_samples_beyond": cal["beyond_p90"],
        "failed_known": outcome.known,
        "problems": outcome.problems[:5],
        "golden_checked": outcome.golden_checked,
        "input_digest": hashlib.sha256(repr([op.key for op in ran]).encode()).hexdigest(),
        "output_digest": hashlib.sha256("\n".join(d or "-" for d in outcome.digests).encode()).hexdigest(),
        "spin_ms": statistics.median(spins),
        "wall": timing.summary(timing.wall_ns),
        "setup_wall_s": statistics.median(s["raw_setup_s"] for s in setups),
    }
    if trace:
        refs = _ref_cases()
        for case, res in refs.items():
            if not res["ok"]:
                outcome.problems.append(f"reference case {case} gave a wrong result")
        metrics = _layer_metrics(spans, outcome, ran, cal, setups, refs, spins)
        detail["op_walls_ns"] = [[w, s] for _, w, s in spans.op_walls[:50]]
        detail["spans_kept"] = len(spans.kept)
    else:
        if workload != "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "op_p50_ms": cal["p50"],
            "op_p90_ms": cal["p90"],
            "ops_per_s": cal["ops_per_s"],
            "ok_ratio": (len(ran) - outcome.failed - outcome.defects) / len(ran),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": len(ran),
        "failed": outcome.failed,
        "metrics": metrics,
    }))


def _layer_metrics(spans, outcome, ops, cal, setups, refs, spins):
    calls = spans.calls
    values = {
        "combinatorics.enumerate_down.calls": calls.get("combinatorics.enumerate_down", 0),
        "combinatorics.gt_patterns.count": spans.counts.get("combinatorics.enumerate_gt_patterns", 0),
        "combinatorics.self_ms": spans.self_ms("combinatorics."),
        "schur.qdim.calls": calls.get("schur.qdim", 0),
        "schur.qdim.hit_ratio": spans.qdim_hit_ratio(),
        "schur.schur_eval.calls": calls.get("schur.schur_eval", 0),
        "schur.schur_eval.fallback_share": spans.fallback_share(),
        "schur.lr_coefficients.self_ms": spans.self_ms("schur.lr_coefficients"),
        "schur.self_ms": spans.self_ms("schur."),
        "characters.restrict.calls": calls.get("characters.restrict", 0),
        "characters.restrict.self_ms": spans.self_ms("characters.restrict"),
        "characters.restrict.support_max": spans.maxima.get("characters.restrict.support_max", 0),
        "characters.tensor.self_ms": spans.self_ms("characters.tensor"),
        "characters.sgf_eval_torus.max_err": outcome.torus_err,
        "characters.self_ms": spans.self_ms("characters."),
        "boundary.extreme_character.self_ms": spans.self_ms("boundary.extreme_character"),
        "boundary.levels_pushed": spans.counts.get("boundary.levels_pushed", 0),
        "boundary.result_max_bits": outcome.result_bits,
        "boundary.self_ms": spans.self_ms("boundary."),
        "blocks.matmul.calls": calls.get("blocks.matmul", 0),
        "blocks.matmul.mults_computed": spans.counts.get("blocks.matmul.mults_computed", 0),
        "blocks.kms_check.self_ms": spans.self_ms("blocks.kms_check"),
        "blocks.scaling.self_ms": spans.self_ms("blocks.scaling"),
        "blocks.char_state_eval.self_ms": spans.self_ms("blocks.char_state_eval"),
        "blocks.decompose_state.self_ms": spans.self_ms("blocks.decompose_state"),
        "blocks.self_ms": spans.self_ms("blocks."),
        "jsonio.parse_ms": spans.top_ns.get("jsonio.parse", 0) / 1e6,
        "jsonio.emit_ms": spans.top_ns.get("jsonio.emit", 0) / 1e6,
        "jsonio.bytes_out": spans.counts.get("jsonio.bytes_out", 0),
        "cli.import_ms": statistics.median(s["import_s"] for s in setups) * 1e3,
        "cli.main.self_ms": spans.self_ms("cli.main"),
        "cli.exit_mismatch": outcome.exit_mismatch,
        "boundary.extreme_L6_ms": refs["extreme_L6"]["seconds"] * 1e3,
        "boundary.extreme_L8_ms": refs["extreme_L8"]["seconds"] * 1e3,
        "boundary.extreme_L10_ms": refs["extreme_L10"]["seconds"] * 1e3,
        "blocks.kms200_d27_s": refs["kms200_d27"]["seconds"],
        "trace.ops_per_s": cal["ops_per_s"],
        "host.spin_ms": statistics.median(spins),
        "workload.repeat_share": _repeat_share(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=probe.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
