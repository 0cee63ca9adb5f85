"""Span tracing for the benchmark's traced run, installed from outside the package.

The tracer wraps the public functions of the layers (`ring`, `encoding`,
`tokens`, `secure_agg`, `policy`) while it is installed and restores them
afterwards; nothing inside `src/` knows about it. Layers import each
other's functions by name, so a wrapper replaces the function under every
name any `veilstream` module binds it to (for `derive_key`: `ring`,
`tokens` and `pipeline`). Methods are wrapped on their class.

Each wrapped call records a span: name, start, end, parent span and the
window index when the arguments reveal it. A span's self time is its
duration minus the time its child spans cover. PRF work is counted by
wrapping `AesPrf.evaluate` and `AesPrf.evaluate_batch` on the class and
charging each 16-byte block to the innermost open span, or to the
pipeline when no span is open.

A target that a later refactor renames or removes is skipped and reports
zero calls; it never stops the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_EXTRACT_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _encrypt_window(tracer, args, kwargs):
    window = (args[1] - 1) // tracer.logical_window
    stream = getattr(getattr(args[0], "_master", None), "stream_id", None)
    if stream is not None:
        tracer.senders.add((stream, window))
    return window


def _first_range_window(tracer, args, kwargs):
    return args[0].t_prev // tracer.logical_window


def _first_piece_window(tracer, args, kwargs):
    return args[0][0].t_prev // tracer.logical_window


def _token_window(tracer, args, kwargs):
    return args[1][0] // tracer.logical_window


def _noise_window(tracer, args, kwargs):
    return args[0].window_start // tracer.logical_window


def _round_window(tracer, args, kwargs):
    return kwargs["round_index"]


def _unmask_window(tracer, args, kwargs):
    return args[0][0].round_index


# (span name, module, attribute, window extractor). The span name is the
# metric prefix: "<module>.<function>".
SPAN_TARGETS = (
    ("ring.encrypt_next", "ring", "ChainEncryptor.encrypt_next", _encrypt_window),
    ("ring.derive_key", "ring", "derive_key", None),
    ("ring.chain_sum", "ring", "chain_sum", _first_piece_window),
    ("ring.cross_sum", "ring", "cross_sum", _first_piece_window),
    ("ring.merge_elements", "ring", "merge_elements", _first_range_window),
    ("ring.apply_token", "ring", "apply_token", _first_range_window),
    ("encoding.encode", "encoding", "encode", None),
    ("encoding.decode_stats", "encoding", "decode_stats", None),
    ("tokens.single_stream_token", "tokens", "single_stream_token", _token_window),
    ("tokens.output_layout", "tokens", "output_layout", None),
    ("tokens.add_dp_noise", "tokens", "add_dp_noise", _noise_window),
    ("secure_agg.plan_epoch", "secure_agg", "plan_epoch", None),
    ("secure_agg.mask_vector", "secure_agg", "mask_vector", _round_window),
    ("secure_agg.mask_token", "secure_agg", "mask_token", _round_window),
    ("secure_agg.unmask_aggregate", "secure_agg", "unmask_aggregate", _unmask_window),
    ("secure_agg.setup_pairwise", "secure_agg", "setup_pairwise", None),
    ("secure_agg.optimize_b", "secure_agg", "optimize_b", None),
    ("policy.plan_query", "policy", "plan_query", None),
    ("policy.verify_plan", "policy", "verify_plan", None),
)

# Called hundreds of thousands of times per run on one line of Python
# each; a span per call would cost more than the call, so these are
# counted and their time stays with the caller.
COUNT_TARGETS = (
    ("secure_agg.active_in_round", "secure_agg", "EpochPlan.active_in_round"),
)

# Where the PRF blocks of a span land. Key derivation is credited to the
# layer that asked for the key: token keys under `tokens`, the producer
# keystream otherwise.
BLOCK_METRICS = (
    "ring.keystream.blocks",
    "tokens.key.blocks",
    "secure_agg.plan_epoch.blocks",
    "secure_agg.mask_vector.blocks",
    "pipeline.blocks",
)


def block_metric(span: str, parent: str | None) -> str:
    if span in ("secure_agg.plan_epoch", "secure_agg.mask_vector"):
        return span + ".blocks"
    layer = span.split(".")[0]
    if span == "ring.derive_key" and parent is not None:
        layer = parent.split(".")[0]
    return {
        "ring": "ring.keystream.blocks",
        "tokens": "tokens.key.blocks",
        "secure_agg": "secure_agg.mask_vector.blocks",
    }.get(layer, "pipeline.blocks")


def _veilstream_modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "veilstream" or n.startswith("veilstream."))
    ]


class Tracer:
    """Records spans and PRF blocks while installed (use as a context manager)."""

    def __init__(self, logical_window: int):
        self.logical_window = logical_window
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, window, blocks)
        self.calls = {name: 0 for name, *_ in SPAN_TARGETS + COUNT_TARGETS}
        self.self_s = {name: 0.0 for name, *_ in SPAN_TARGETS}
        self.inclusive_s = {name: 0.0 for name, *_ in SPAN_TARGETS}
        self.blocks = {name: 0 for name in BLOCK_METRICS}
        self.senders: set[tuple[str, int]] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name, id, child seconds, blocks]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        from veilstream import ring

        for name, module, attr, window_of in SPAN_TARGETS:
            self._wrap(name, module, attr, lambda fn, n=name, w=window_of: self._span(n, fn, w))
        for name, module, attr in COUNT_TARGETS:
            self._wrap(name, module, attr, lambda fn, n=name: self._counted(n, fn))
        for method in ("evaluate", "evaluate_batch"):
            original = ring.AesPrf.__dict__.get(method)
            if original is None:
                continue
            setattr(ring.AesPrf, method, self._charged(original, method == "evaluate_batch"))
            self._undo.append((ring.AesPrf, method, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _wrap(self, name, module, attr, make_wrapper):
        mod = sys.modules.get(f"veilstream.{module}")
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = None if owner is None else owner.__dict__.get(member)
            if original is None:
                self.missing.append(name)
                return
            setattr(owner, member, make_wrapper(original))
            self._undo.append((owner, member, original))
            return
        original = getattr(mod, member, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make_wrapper(original)
        for m in _veilstream_modules():
            for bound, value in list(vars(m).items()):
                if value is original:
                    setattr(m, bound, wrapper)
                    self._undo.append((m, bound, original))

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, window_of):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                window = window_of(self, args, kwargs) if window_of else None
            except _EXTRACT_ERRORS:
                window = None
            span_id = self._next_id
            self._next_id += 1
            parent_id = stack[-1][1] if stack else None
            frame = [name, span_id, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.inclusive_s[name] += duration
                self.self_s[name] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.blocks[block_metric(name, parent and parent[0])] += frame[3]
                self.spans.append((span_id, name, start, end, parent_id, window, frame[3]))

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _charged(self, fn, batch):
        stack = self._stack
        blocks = self.blocks

        @functools.wraps(fn)
        def wrapper(prf, key, message):
            n = len(message) // 16 if batch else 1
            if stack:
                stack[-1][3] += n
            else:
                blocks["pipeline.blocks"] += n
            return fn(prf, key, message)

        return wrapper

    # -- results --------------------------------------------------------------

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def write(self, path, header: dict) -> None:
        """Write the header and then one span per line, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, window, blocks in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "window": window,
                            "blocks": blocks,
                        }
                    )
                    + "\n"
                )
