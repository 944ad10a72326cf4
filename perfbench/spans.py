"""Benchmark-side span recorder.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions: while a :class:`SpanRecorder` is installed, the
functions listed in :func:`_targets` are replaced by wrappers that open a
span, call the original and close the span.  Nothing inside ``src/`` is
changed; uninstalling restores the originals.

Every span carries its name (the layer), start, end, parent span and the
session id set by the caller.  Spans stay in memory until the run ends.
The benchmark is single-threaded (no prefetch, one SR thread, origin and
client on one event loop), so a stack gives each span its parent.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.clock import wall_clock


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    session: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _decoded_counts(span, args, kwargs, out):
    span.attrs["frames"] = len(out)
    span.attrs["iframes"] = sum(1 for item in out if item.ftype == "I")


def _encoded_frames(span, args, kwargs, out):
    span.attrs["frames"] = len(args[1])


def _train_steps(span, args, kwargs, out):
    from repro.sr import SrTrainConfig

    config = args[3] if len(args) > 3 else kwargs.get("config")
    config = config or SrTrainConfig()
    span.attrs["steps"] = config.epochs * config.steps_per_epoch


def _targets():
    """``(owner, attribute, span name, annotate)`` for every traced call.

    Colour conversion is patched where :mod:`repro.core.client` looks it
    up, so both the SR hook and the display path are covered.  Server
    stage entry points are patched in :mod:`repro.core.server`'s
    namespace, which is where ``build_package`` resolves them.
    """
    from repro.core import client, persist, server
    from repro.net import transport
    from repro.sr import engine
    from repro.video.codec import decoder, encoder

    return [
        (decoder.Decoder, "decode_segment", "codec.decode", _decoded_counts),
        (encoder.Encoder, "encode", "codec.encode", _encoded_frames),
        (encoder.Encoder, "encode_segment", "codec.encode", _encoded_frames),
        (engine.InferenceEngine, "enhance", "sr", None),
        (client, "yuv420_to_rgb", "color", None),
        (client, "rgb_to_yuv420", "color", None),
        (transport.HttpTransport, "download", "net.download", None),
        (transport, "mirror_package", "net.mirror", None),
        (persist, "load_package", "persist.load", None),
        (persist, "save_package", "persist.save", None),
        (server, "build_package", "build", None),
        (server, "prepare_video", "build.prepare", None),
        (server, "train_vae", "nn.train_vae", None),
        (server, "extract_features", "features.extract", None),
        (server, "select_k", "clustering.select_k", None),
        (server, "train_sr", "nn.train_sr", _train_steps),
        (server, "calibrate_quantized", "sr.calibrate", None),
    ]


class SpanRecorder:
    """In-memory span tree over the patched layer calls."""

    def __init__(self):
        self.clock = wall_clock()
        self.spans: list[Span] = []
        self.session: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock.now(), parent=parent,
                    session=self.session, attrs=attrs)
        self._stack.append(span.index)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self.clock.now()
            self._stack.pop()

    def _wrap(self, original, name, annotate):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        for owner, attr, name, annotate in _targets():
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON list."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dataclasses.asdict(span) for span in self.spans]))

    # ------------------------------------------------------------ queries

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_seconds(self, index: int, kids: dict[int, list[int]]) -> float:
        """Span duration minus the part its children cover."""
        return self.spans[index].seconds - sum(
            self.spans[k].seconds for k in kids.get(index, ()))

    def subtree(self, root: int, kids: dict[int, list[int]]) -> list[int]:
        out, todo = [], [root]
        while todo:
            index = todo.pop()
            out.append(index)
            todo.extend(kids.get(index, ()))
        return out
