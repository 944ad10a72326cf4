"""The benchmark's two workloads.

Each runs as a closed loop in one process: one viewer session at a time,
back to back, until ``seconds`` have passed and the minimum count is
reached.  The seed only picks the generated clip; every other input is
fixed here.  Set-up builds, saves and loads the clip's package, so the
server side (encoder, VAE, clustering, training, quantization, persist)
is measured there.

- ``play_static``: a news clip played in-process through the int8 /
  skip-gate / exact-reuse fast path.
- ``play_cuts_http``: a sports clip with two-frame segments played over
  loopback HTTP from an in-process origin (mirror, then play, as
  ``repro.cli play --url`` does) with the fp32 shift engine.

Outputs are checked untimed after the loop; a failed check is recorded in
``Run.mismatches``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.workloads import CorpusSpec
from repro.core import DcsrClient, FastPathConfig, ServerConfig, persist, server
from repro.core.client import PlaybackResult
from repro.features import VaeTrainConfig
from repro.net import DcsrOrigin, HttpTransport, transport
from repro.obs import Observability
from repro.obs.clock import wall_clock
from repro.sr import EdsrConfig, SrTrainConfig, dcsr_config
from repro.sr.engine import SkipGateConfig
from repro.video import make_video, yuv420_to_rgb
from repro.video.codec import CodecConfig
from repro.video.quality import psnr

from probe import Sampler, probe

#: Sessions every untraced run makes at least.
MIN_SESSIONS = 6

FPS = 10.0
#: The quality benchmarks' CRF.
CRF = CorpusSpec().crf

#: ``play_static``: int8 kernels, variance gate at tile 128 / 1e-3, exact
#: temporal reuse.  ``play_cuts_http``: the default fp32 shift engine.
#: Both skip the per-session calibration pass, a diagnostic reference
#: inference the client would otherwise hide inside decode time.
STATIC_FAST = FastPathConfig(tile=128, precision="int8",
                             skip_gate=SkipGateConfig(var_threshold=1e-3),
                             reuse=True, calibrate=False)
CUTS_FAST = FastPathConfig(calibrate=False)


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` is for the
    benchmark's own smoke test."""

    size: tuple[int, int]
    static_frames: int
    cuts_frames: int
    static_train: SrTrainConfig
    cuts_train: SrTrainConfig
    vae_epochs: int


#: The play packages' training budgets: the quality benchmarks' 300 steps
#: for the 2x8 model; 100 steps for dcSR-1, which trains 3x slower.
FULL = Scale(
    size=(352, 640), static_frames=8, cuts_frames=4,
    static_train=SrTrainConfig(epochs=25, steps_per_epoch=12, batch_size=8,
                               patch_size=16, lr_decay_epochs=8),
    cuts_train=SrTrainConfig(epochs=10, steps_per_epoch=10, batch_size=8,
                             patch_size=16, lr_decay_epochs=5),
    vae_epochs=2)

_TINY_TRAIN = SrTrainConfig(epochs=1, steps_per_epoch=2, batch_size=4,
                            patch_size=16)
TINY = Scale(
    size=(48, 64), static_frames=8, cuts_frames=4,
    static_train=_TINY_TRAIN, cuts_train=_TINY_TRAIN, vae_epochs=1)


@dataclass
class Session:
    """One viewer session."""

    #: Start on the run's sampler clock (``Sampler.now``).
    start: float
    wall: float
    startup: float
    gaps: list[float]
    result: PlaybackResult
    digest: str
    complete: bool
    n_frames: int
    frames: list | None = None
    net_attempts: int = 0
    net_failures: int = 0
    net_bytes: int = 0
    origin_requests: float = 0.0
    #: Index of the session's span when the session was traced.
    span: int | None = None


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: str
    #: Host-speed samples and the clock every timing is read from.  An
    #: untraced run enters it for set-up and the session loop; a traced run
    #: does not (its spans read wall time) and probes only between sessions.
    sampler: Sampler = field(default_factory=Sampler)
    setup_start: float = 0.0
    setup_end: float = 0.0
    #: ``BuildTelemetry`` of the set-up build.
    build_telemetry: object = None
    #: Measured sessions, in order; correctness-only sessions are not here.
    sessions: list[Session] = field(default_factory=list)
    psnr_db: float = 0.0
    low_psnr_db: float = 0.0
    model_kib: float = 0.0
    n_models: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.setup_end - self.setup_start

    def timing(self, recorder):
        """Context for set-up and the session loop: the sampler, unless
        the run is traced."""
        return nullcontext() if recorder is not None else self.sampler

    def probe_between(self, recorder) -> None:
        """In a traced run, one probe between timed stretches."""
        if recorder is not None:
            self.sampler.add(probe()["total"])

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def count(self, session: Session) -> None:
        """Add a session, its segments and its downloads to the
        attempted/failed tallies."""
        telemetry = session.result.telemetry
        self.attempted += (1 + len(telemetry.segments)
                           + telemetry.download_attempts)
        self.failed += ((not session.complete) + telemetry.n_concealed
                        + telemetry.n_fallback + session.net_failures)

    def check_sessions(self, reference: Session) -> None:
        """Every measured session delivered every frame, bit-identically."""
        for s in self.sessions:
            self.check(s.complete, "a session missed or concealed frames")
            self.check(s.digest == reference.digest,
                       "repeated sessions delivered different frames")


def _digest(frames) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(np.ascontiguousarray(frame).tobytes())
    return h.hexdigest()


def _mean_psnr(frames, reference) -> float:
    return float(np.mean([psnr(f, r) for f, r in zip(frames, reference)]))


def _score(run: Run, first: Session, package, clip) -> None:
    """PSNR of the delivered frames and of the plain (LOW) decode."""
    run.psnr_db = _mean_psnr(first.frames, clip.frames)
    run.low_psnr_db = _mean_psnr(
        [yuv420_to_rgb(f) for f in package.decoded_low.frames], clip.frames)


def play_session(make_client, n_frames: int, keep_frames: bool = False,
                 recorder=None, clock=None) -> Session:
    """Run one session; stamp every delivered frame on ``clock`` (wall
    time by default).

    ``make_client`` runs inside the session, so the HTTP session's mirror
    and package load count towards its start-up.  With a recorder the
    session is one ``session`` span covering exactly the measured wall.
    """
    clock = clock or wall_clock()
    result = PlaybackResult()
    stamps, played = [], []
    span_cm = recorder.span("session") if recorder else nullcontext()
    t0 = clock.now()
    with span_cm as span:
        client = make_client()
        for frame in client.iter_frames(result=result):
            stamps.append(clock.now())
            played.append(frame)
    wall = clock.now() - t0
    ordered = [p.rgb for p in played]
    complete = ([p.display for p in played] == list(range(n_frames))
                and not any(p.concealed for p in played)
                and not result.skipped_segments
                and not result.fallback_segments)
    return Session(start=t0, wall=wall,
                   startup=stamps[0] - t0 if stamps else wall,
                   gaps=[b - a for a, b in zip(stamps, stamps[1:])],
                   result=result, digest=_digest(ordered), complete=complete,
                   n_frames=len(played),
                   frames=ordered if keep_frames else None,
                   span=span.index if recorder else None)


def _installed(recorder):
    return recorder.installed() if recorder is not None else nullcontext()


def session_loop(run: Run, play_once, seconds: float, minimum: int,
                 recorder=None) -> None:
    """Closed loop: sessions back to back until ``seconds`` have passed
    (none left is allowed) and at least ``minimum`` ran.  In a traced run
    every second session is traced, so the untraced ones measure what
    tracing costs."""
    clock = run.sampler
    start = clock.now()
    run.probe_between(recorder)
    while clock.now() - start < seconds or len(run.sessions) < minimum:
        index = len(run.sessions)
        if recorder is not None and index % 2 == 1:
            recorder.session = f"{run.workload}-{index}"
            with recorder.installed():
                session = play_once(index, recorder)
            recorder.session = None
        else:
            session = play_once(index, None)
        run.sessions.append(session)
        run.count(session)
        run.probe_between(recorder)


def _build(run: Run, clip, config):
    """The set-up build_package call."""
    package = server.build_package(clip, config)
    run.build_telemetry = package.telemetry
    run.attempted += 1
    run.model_kib = sum(package.manifest.model_sizes.values()) / 1024.0
    run.n_models = package.n_models
    return package


def _play_config(scale: Scale, micro: EdsrConfig, train: SrTrainConfig,
                 segment_len: int,
                 precisions: tuple[str, ...]) -> ServerConfig:
    """Server settings for the packages: fixed-length segments (same
    I-frame count on every seed) and a short training run, since the
    workloads measure the client."""
    return ServerConfig(
        codec=CodecConfig(crf=CRF),
        fixed_segment_len=segment_len,
        vae_train=VaeTrainConfig(epochs=scale.vae_epochs, batch_size=4),
        sr_train=train,
        micro_config=micro,
        validate_in_loop=False,
        quantize_precisions=precisions,
        seed=0)


# ---------------------------------------------------------------- play_static

def play_static(seed: int, seconds: float, workdir: Path, scale: Scale = FULL,
                recorder=None) -> Run:
    run = Run("play_static")
    n = scale.static_frames
    with run.timing(recorder):
        run.probe_between(recorder)
        run.setup_start = run.sampler.now()
        with _installed(recorder):
            clip = make_video("static-news", "news", seed=seed,
                              size=scale.size, duration_seconds=n / FPS,
                              fps=FPS)
            config = _play_config(scale,
                                  EdsrConfig(n_resblocks=2, n_filters=8),
                                  scale.static_train, segment_len=n,
                                  precisions=("int8",))
            package = _build(run, clip, config)
            persist.save_package(package, workdir / "package")
            stored = persist.load_package(workdir / "package")
        run.setup_end = run.sampler.now()

        def play_once(index, rec, fast=STATIC_FAST):
            return play_session(lambda: DcsrClient(stored, fast_path=fast),
                                n, keep_frames=index == 0, recorder=rec,
                                clock=run.sampler)

        session_loop(run, play_once, seconds,
                     MIN_SESSIONS if recorder is None else 2, recorder)

    first = run.sessions[0]
    run.check_sessions(first)
    plain = play_once(-1, None, dataclasses.replace(STATIC_FAST, reuse=None))
    run.count(plain)
    run.check(plain.complete and plain.digest == first.digest,
              "static frames differ from the same client with reuse off")
    in_memory = play_session(
        lambda: DcsrClient(package, fast_path=STATIC_FAST), n)
    run.count(in_memory)
    run.check(in_memory.complete and in_memory.digest == first.digest,
              "the saved-then-loaded package plays differently")
    _score(run, first, package, clip)
    return run


# ------------------------------------------------------------ play_cuts_http

def _drain(loop) -> None:
    """Let finished connection handlers unwind, then cancel stragglers."""
    for _ in range(20):
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        if not pending:
            return
        loop.run_until_complete(asyncio.wait(pending, timeout=0.1))
    leaked = [t for t in asyncio.all_tasks(loop) if not t.done()]
    for task in leaked:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*leaked, return_exceptions=True))


def _origin_requests(origin) -> float:
    for metric in origin.obs.metrics.metrics():
        if metric.name == "dcsr_origin_requests_total":
            return float(sum(metric.series().values()))
    return 0.0


def play_cuts_http(seed: int, seconds: float, workdir: Path,
                   scale: Scale = FULL, recorder=None) -> Run:
    run = Run("play_cuts_http")
    n = scale.cuts_frames
    loop = asyncio.new_event_loop()
    origin = None
    try:
        with run.timing(recorder):
            run.probe_between(recorder)
            run.setup_start = run.sampler.now()
            with _installed(recorder):
                clip = make_video("cuts-sports", "sports", seed=seed,
                                  size=scale.size, duration_seconds=n / FPS,
                                  fps=FPS)
                config = _play_config(scale, dcsr_config(1), scale.cuts_train,
                                      segment_len=2, precisions=())
                package = _build(run, clip, config)
                persist.save_package(package, workdir / "origin")
            origin = DcsrOrigin(workdir / "origin",
                                obs=Observability(root_name="origin"))
            loop.run_until_complete(origin.start())
            run.setup_end = run.sampler.now()

            def play_once(index, rec):
                mirror = workdir / f"mirror-{index}"
                requests_before = _origin_requests(origin)
                obs = Observability(root_name="play")
                net = HttpTransport(origin.base_url, obs=obs, loop=loop)

                def make_client():
                    stored = persist.load_package(
                        transport.mirror_package(net, mirror))
                    return DcsrClient(stored, network=net, fast_path=CUTS_FAST,
                                      obs=obs)

                session = play_session(make_client, n, keep_frames=index == 0,
                                       recorder=rec, clock=run.sampler)
                session.net_attempts = net.stats.attempts
                session.net_failures = net.stats.failures
                session.net_bytes = net.stats.bytes_delivered + sum(
                    p.stat().st_size for p in mirror.rglob("*") if p.is_file())
                session.origin_requests = \
                    _origin_requests(origin) - requests_before
                net.close()
                shutil.rmtree(mirror)
                return session

            session_loop(run, play_once, seconds,
                         MIN_SESSIONS if recorder is None else 2, recorder)
    finally:
        if origin is not None:
            loop.run_until_complete(origin.stop())
        _drain(loop)
        loop.close()

    first = run.sessions[0]
    run.check_sessions(first)
    stored = persist.load_package(workdir / "origin")
    local = play_session(lambda: DcsrClient(stored, fast_path=CUTS_FAST), n)
    run.count(local)
    run.check(local.complete and local.digest == first.digest,
              "HTTP frames differ from an in-process play of the package")
    _score(run, first, package, clip)
    return run


RUNNERS = {"play_static": play_static, "play_cuts_http": play_cuts_http}
