"""Metric tables: end-to-end metrics of an untraced run, per-layer metrics
of a traced run.  Every metric is ``name -> (value, unit, samples)``.

Every timing is scaled to the reference host speed of :mod:`probe`."""

from __future__ import annotations

import resource
import statistics

from probe import REFERENCE_S
from workloads import Run

#: Tracer span names that are playback stages; ``client`` self time is the
#: session span's own time outside all of them.
STAGE_OF_SPAN = {"codec.decode": "decode", "sr": "sr", "color": "color",
                 "net.download": "download"}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


#: ``frame_gap_tail_ms`` is this percentile of a run's frame gaps.
TAIL_PERCENTILE = 90


def session_scales(run: Run) -> list[float]:
    """Per measured session, the factor that turns its seconds into
    seconds at the reference host speed (``Sampler.factor``)."""
    return [run.sampler.factor(s.start, s.start + s.wall)
            for s in run.sessions]


def setup_scale(run: Run) -> float:
    return run.sampler.factor(run.setup_start, run.setup_end)


def run_scale(run: Run) -> float:
    """One factor for the whole run, from the median of all its samples."""
    return REFERENCE_S / run.sampler.median_s()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, scaled: bool = True
               ) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics of an untraced run.

    Timings are medians over the run's sessions, each session's seconds
    first scaled to the reference host speed (``scaled=False`` gives the
    same statistics of the raw seconds).  ``frame_gap_*`` pool the gaps
    of every session.
    """
    scales = session_scales(run) if scaled else [1.0] * len(run.sessions)
    gaps = [g * k for s, k in zip(run.sessions, scales) for g in s.gaps]
    tail = statistics.quantiles(gaps, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1]
    first = run.sessions[0].result
    n = len(run.sessions)
    return {
        "play_fps": (_median([s.n_frames / (s.wall * k)
                              for s, k in zip(run.sessions, scales)]),
                     "frames/s", n),
        "startup_s": (_median([s.startup * k
                               for s, k in zip(run.sessions, scales)]),
                      "s", n),
        "frame_gap_p50_ms": (1e3 * _median(gaps), "ms", len(gaps)),
        "frame_gap_tail_ms": (1e3 * tail, "ms", len(gaps)),
        "psnr_db": (run.psnr_db, "dB", 1),
        "download_kib": (first.total_bytes / 1024.0, "KiB", 1),
        "model_kib": (run.model_kib, "KiB", 1),
        "setup_s": (run.setup_s * (setup_scale(run) if scaled else 1.0),
                    "s", 1),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1),
    }


class _Units:
    """Per-layer totals over the span subtrees of some unit spans."""

    def __init__(self, recorder, units: list[int]):
        spans = recorder.spans
        kids = recorder.children()
        self.n = len(units)
        self.wall = sum(spans[u].seconds for u in units)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.attrs: dict[str, float] = {}
        self.session_self = sum(recorder.self_seconds(u, kids) for u in units)
        for unit in units:
            for index in recorder.subtree(unit, kids):
                if index == unit:
                    continue
                span = spans[index]
                name = span.name
                self.self_s[name] = self.self_s.get(name, 0.0) \
                    + recorder.self_seconds(index, kids)
                if spans[span.parent].name != name:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.inclusive[name] = self.inclusive.get(name, 0.0) \
                        + span.seconds
                for key, value in span.attrs.items():
                    self.attrs[f"{name}.{key}"] = \
                        self.attrs.get(f"{name}.{key}", 0.0) + value

    def share(self, name: str) -> float:
        return self.self_s.get(name, 0.0) / self.wall if self.wall else 0.0

    def per_unit(self, value: float) -> float:
        return value / self.n if self.n else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def stage_totals(recorder, session) -> dict[str, float]:
    """Traced seconds per playback stage inside one traced session."""
    units = _Units(recorder, [session.span])
    totals = {stage: 0.0 for stage in STAGE_OF_SPAN.values()}
    for name, stage in STAGE_OF_SPAN.items():
        totals[stage] += units.self_s.get(name, 0.0)
    return totals


#: Per-layer units that are times (scaled by the run's factor) and rates
#: (divided by it).
_TIME_UNITS, _RATE_UNITS = ("ms", "s"), ("GFLOP/s", "1/s")


def per_layer(run: Run, recorder) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of a traced run.  Times and rates are scaled by
    one factor for the whole run (:func:`run_scale`; a traced run probes
    between sessions only); ``host.probe_ms`` is the run's median raw
    probe time, to undo it."""
    table = _per_layer_raw(run, recorder)
    k = run_scale(run)
    for name, (value, unit, samples) in table.items():
        if unit in _TIME_UNITS:
            table[name] = (value * k, unit, samples)
        elif unit in _RATE_UNITS:
            table[name] = (value / k, unit, samples)
    table["host.probe_ms"] = (1e3 * REFERENCE_S / k, "ms",
                              len(run.sampler.samples))
    return table


def _per_layer_raw(run: Run, recorder) -> dict[str, tuple[float, str, int]]:
    spans = recorder.spans
    traced = [s for s in run.sessions if s.span is not None]
    untraced = [s for s in run.sessions if s.span is None]
    play = _Units(recorder, [s.span for s in traced])
    n_frames = sum(s.n_frames for s in traced)

    def seconds_of(name):
        return [s.seconds for s in spans if s.name == name]

    encode_s = sum(seconds_of("codec.encode"))
    encode_frames = sum(s.attrs.get("frames", 0) for s in spans
                        if s.name == "codec.encode")
    train_s = sum(seconds_of("nn.train_sr"))
    train_steps = sum(s.attrs.get("steps", 0) for s in spans
                      if s.name == "nn.train_sr")
    telemetry = [s.result.telemetry for s in traced]
    tiles = [sum(t.tile_count for t in telemetry),
             sum(t.skipped_tiles for t in telemetry),
             sum(t.reused_tiles for t in telemetry)]
    sr_flops = sum(seg.sr_flops for t in telemetry for seg in t.segments)
    sr_calls = play.calls.get("sr", 0)
    segment_ready = [1e3 * (seg.download_s + seg.decode_s + seg.sr_s
                            + seg.color_s)
                     for t in telemetry for seg in t.segments]
    stage = run.build_telemetry.stage_seconds
    # Tracing cost: median scaled wall of the traced sessions over that of
    # the untraced ones (``trace.overhead_frac`` is a ratio, so it is left
    # alone when the table is scaled).
    scales = dict(zip(map(id, run.sessions), session_scales(run)))
    traced_walls = [s.wall * scales[id(s)] for s in traced]
    untraced_walls = [s.wall * scales[id(s)] for s in untraced]
    nt = len(traced)
    return {
        "codec.decode_ms_per_frame": (
            1e3 * _ratio(play.self_s.get("codec.decode", 0.0),
                         play.attrs.get("codec.decode.frames", 0)),
            "ms", nt),
        "codec.decode_share": (play.share("codec.decode"), "ratio", nt),
        "codec.frames": (play.per_unit(play.attrs.get("codec.decode.frames",
                                                      0)), "count", nt),
        "codec.iframes": (play.per_unit(play.attrs.get("codec.decode.iframes",
                                                       0)), "count", nt),
        "codec.encode_ms_per_frame": (1e3 * _ratio(encode_s, encode_frames),
                                      "ms", int(encode_frames)),
        "sr.enhance_ms_per_call": (
            1e3 * _ratio(play.inclusive.get("sr", 0.0), sr_calls), "ms",
            sr_calls),
        "sr.calls": (play.per_unit(sr_calls), "count", nt),
        "sr.gflop_per_s": (_ratio(sr_flops,
                                  play.inclusive.get("sr", 0.0)) / 1e9,
                           "GFLOP/s", sr_calls),
        "sr.share": (play.share("sr"), "ratio", nt),
        "sr.tiles_computed": (play.per_unit(tiles[0]), "count", nt),
        "sr.tiles_skipped": (play.per_unit(tiles[1]), "count", nt),
        "sr.tiles_reused": (play.per_unit(tiles[2]), "count", nt),
        "sr.reuse_hit_ratio": (_ratio(tiles[2], sum(tiles)), "ratio", nt),
        "color.ms_per_frame": (1e3 * _ratio(play.self_s.get("color", 0.0),
                                            n_frames), "ms", n_frames),
        "color.share": (play.share("color"), "ratio", nt),
        "client.self_ms_per_frame": (1e3 * _ratio(play.session_self,
                                                  n_frames), "ms", n_frames),
        "client.segment_ready_ms_p50": (_median(segment_ready), "ms",
                                        len(segment_ready)),
        "client.peak_resident_frames": (
            max((t.peak_resident_frames for t in telemetry), default=0),
            "count", nt),
        "cache.model_hit_ratio": (
            _median([s.result.cache_stats.hit_rate for s in run.sessions]),
            "ratio", len(run.sessions)),
        "cache.model_fetches": (
            _median([len(s.result.model_downloads) for s in run.sessions]),
            "count", len(run.sessions)),
        "persist.load_s": (_median(seconds_of("persist.load")), "s",
                           len(seconds_of("persist.load"))),
        "persist.save_s": (_median(seconds_of("persist.save")), "s",
                           len(seconds_of("persist.save"))),
        "net.mirror_s": (_median(seconds_of("net.mirror")), "s",
                         len(seconds_of("net.mirror"))),
        "net.download_ms_p50": (1e3 * _median(seconds_of("net.download")),
                                "ms", len(seconds_of("net.download"))),
        "net.attempts": (_median([s.net_attempts for s in run.sessions]),
                         "count", len(run.sessions)),
        "net.failures": (_median([s.net_failures for s in run.sessions]),
                         "count", len(run.sessions)),
        "net.bytes": (_median([s.net_bytes for s in run.sessions]), "B",
                      len(run.sessions)),
        "origin.requests": (
            _median([s.origin_requests for s in run.sessions]), "count",
            len(run.sessions)),
        "build.encode_s": (stage.get("encode", 0.0), "s", 1),
        "build.embed_s": (stage.get("embed", 0.0), "s", 1),
        "build.cluster_s": (stage.get("cluster", 0.0), "s", 1),
        "build.train_s": (stage.get("train", 0.0), "s", 1),
        "build.quantize_s": (stage.get("quantize", 0.0), "s", 1),
        "build.validate_s": (stage.get("validate", 0.0), "s", 1),
        "build.k": (run.n_models, "count", 1),
        "build.sr_gain_db": (run.psnr_db - run.low_psnr_db, "dB", 1),
        "nn.sr_train_steps_per_s": (_ratio(train_steps, train_s), "1/s",
                                    int(train_steps)),
        "trace.overhead_frac": (
            _ratio(_median(traced_walls), _median(untraced_walls)) - 1.0
            if traced_walls and untraced_walls else 0.0,
            "ratio", len(traced_walls) + len(untraced_walls)),
    }
