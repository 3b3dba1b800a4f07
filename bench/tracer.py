"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces every module-level name that refers to a public
function of a qchar module (the same function re-exported elsewhere, like
`qdim` in `characters` and `blocks`, gets the same wrapper) and
`BlockElement.__matmul__`.  A wrapper records a span (name, start, end,
parent, op id) only while an op is open, so output checks and set-up are
never traced.  Generator functions are counted, not timed: their work runs
inside whoever consumes them.

Spans are kept in memory.  When an op closes its spans are folded into
per-name totals (calls and self nanoseconds); the raw spans of
the first ops are kept, up to KEEP_SPANS spans, and written out by `dump`.
"""

import functools
import inspect
import json
import time

import qchar
from qchar import blocks, boundary, characters, cli, combinatorics, jsonio, schur

LAYERS = (combinatorics, schur, characters, boundary, blocks, jsonio, cli)
OP = "bench.op"
KEEP_SPANS = 200_000

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id) of the open op
        self.kept = []
        self.stack = []
        self.op_id = None
        self.calls = {}
        self.self_ns = {}
        self.counts = {}
        self.maxima = {}
        self.top_ns = {}  # inclusive time of spans not nested in a span of the same name group
        self.op_walls = []  # (op id, wall ns, summed self ns of its program spans)
        self._restore = []
        self._qdim_info = schur.qdim.cache_info
        self.qdim_hits = self.qdim_misses = 0

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value) -> None:
        if value > self.maxima.get(name, value - 1):
            self.maxima[name] = value

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.op_id is not None:
                    self.count(name)
                yield item

        return counted

    def open_op(self, op_id) -> None:
        self.spans.clear()
        self.op_id = op_id
        self.spans.append(None)
        self.stack.append(0)
        self._qdim_before = self._qdim_info()
        self._op_start = _clock()

    def close_op(self) -> None:
        end = _clock()
        after = self._qdim_info()
        self.qdim_hits += after.hits - self._qdim_before.hits
        self.qdim_misses += after.misses - self._qdim_before.misses
        self.stack.pop()
        self.spans[0] = (OP, self._op_start, end, -1, self.op_id)
        self.op_id = None
        self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        program_self = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if i:
                program_self += own
            if name == "schur.schur_eval_gt_oracle" and spans[parent][0] == "schur.schur_eval":
                self.count("schur.schur_eval.fallbacks")
            group = _io_group(name)
            if group and (parent < 0 or _io_group(spans[parent][0]) != group):
                self.top_ns[group] = self.top_ns.get(group, 0) + dur
        root = spans[0]
        self.op_walls.append((root[4], root[2] - root[1], program_self))
        if len(self.kept) + len(spans) <= KEEP_SPANS:
            self.kept.extend(spans)

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every public qchar function wherever a layer module names it."""
        wrapped = {}
        hooks = self._hooks()
        for mod in LAYERS + (qchar,):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith("qchar."):
                    continue
                if id(obj) not in wrapped:
                    name = f"{origin.rsplit('.', 1)[1]}.{attr}"
                    inner = getattr(obj, "__wrapped__", obj)
                    if inspect.isgeneratorfunction(inner):
                        wrapped[id(obj)] = self._counted(name, obj)
                    else:
                        wrapped[id(obj)] = self._span(name, obj, hooks.get(name))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        matmul = blocks.BlockElement.__matmul__
        self._restore.append((blocks.BlockElement, "__matmul__", matmul))
        blocks.BlockElement.__matmul__ = self._span("blocks.matmul", matmul, self._matmul_hook)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _hooks(self):
        return {
            "characters.restrict": lambda a, r: self.maximum("characters.restrict.support_max", len(r.weights)),
            "boundary.extreme_character": lambda a, r: self.count("boundary.levels_pushed", a[2] - a[1]),
            "jsonio.dumps": lambda a, r: self.count("jsonio.bytes_out", len(r.encode())),
        }

    def _matmul_hook(self, args, result):
        left, right = args
        self.count(
            "blocks.matmul.mults_computed",
            sum(len(rows) ** 3 for sig, rows in left.blocks.items() if sig in right.blocks),
        )

    # --------------------------------------------------------------- results

    def self_ms(self, prefix: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e6

    def fallback_share(self) -> float:
        """Share of schur_eval calls that went through the pattern-sum oracle."""
        total = self.calls.get("schur.schur_eval", 0)
        return self.counts.get("schur.schur_eval.fallbacks", 0) / total if total else 0.0

    def qdim_hit_ratio(self) -> float:
        total = self.qdim_hits + self.qdim_misses
        return self.qdim_hits / total if total else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.kept}, fh)


def _io_group(name: str) -> str | None:
    if not name.startswith("jsonio."):
        return None
    if name.endswith("_from_json") or name == "jsonio.parse_scalar":
        return "jsonio.parse"
    return "jsonio.emit"
