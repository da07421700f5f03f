"""Stochastic-gradient-ascent training loop with validation-ELBO early
stopping, plus model evaluation, checkpoint serialization and metrics rows.

Random streams are all derived from the single config seed by fixed,
documented offsets:

    seed + 1               encoder parameter init
    seed + 2               decoder parameter init
    seed + 3               epoch shuffling (one stream, advancing over epochs)
    seed + 4               validation sampling (the same draws every epoch:
                           each epoch evaluates on a fresh Rng(seed + 4))
    seed + 1_000_000 + i   gradient sampling for training example i
                           (drawn once, so a frozen model yields identical
                           metrics in every epoch)

Per-example streams keyed by dataset index make the recorded per-example
ELBO values independent of batch order, and make a zero-learning-rate run
produce the same metrics row every epoch.

Every pass is _pass, which takes the estimator from DiscreteVae.estimate:
only streams, batches, threads and steps are left here. This is the only
module that starts threads; it uses two cores at most:

* overlapped runs one callable on the caller while the caller's helper
  thread runs another. Each calling thread has one helper, started on its
  first call that overlaps and serving its calls one at a time until the
  calling thread ends: starting a thread per call cost more than the work
  some calls hand over. Below OVERLAP_MIN_SIZE, or when the process may run
  on one CPU only, the two run in turn on the caller and no helper starts:
  numpy holds the interpreter lock through operations on small arrays, so
  two threads would only pass it back and forth, and on one CPU the helper
  only adds its own malloc arena and thread switches (perfbench
  train-mnist784 pinned to one CPU of a 2-vCPU x86-64 host: peak RSS 85.6
  -> 89.6 MB, 7% more time with it).
* build_model draws the encoder's init on the caller and the decoder's on
  the helper. The best-parameter snapshots copy both nets on the caller,
  in turn: memory-bound copies gained nothing on two threads (an 8 MB
  snapshot took 0.63-0.68 ms split over both against 0.59-0.67 ms in
  turn, three runs of 300 on a 2-vCPU x86-64 host). The copy back after
  training is skipped when the last epoch is the best.
* A pass runs jobs, each encoded, sampled, decoded and estimated in two
  row halves (DiscreteVae.estimate), the first on the caller and the
  second on the helper, with no join between: one handoff. The halves
  write their rows of batch-sized arrays (the nets' layer outputs kept by
  the calling thread from pass to pass, to fault fewer pages in), so the
  backward passes read the whole batch with no join copy.
* A forward-only pass (_estimates: evaluate, each epoch's validation and
  the epoch-0 row) runs schedule's jobs: a pair of whole blocks, one per
  thread, or a block alone. It adds block sums in order and runs neither
  net's pass, so it computes no gradient.
* A training pass runs a job per batch, each a lone block, then hands
  over once more: the caller runs the encoder's pass and step while the
  helper takes the decoder's upstream gradient and runs its pass and step.
  No state passes from one job to the next.

Run in turn, the halves are the same halves, split at the same row, so
each net runs the same array operations in the same order either way, and
sums are added in the same order: at a given BLAS thread count metrics and
parameters are byte-identical whichever way a pass runs. The pinned bytes
are those of one BLAS thread (OPENBLAS_NUM_THREADS=1, as CI and perfbench
set it); another count may train to other parameter bytes. A half's rows
(a pair's block's) hold the bytes of any other split's where BLAS gives a
product's rows the same bits at both row counts. On OpenBLAS 0.3.31
(Haswell kernels, one thread), 28x28 inputs, D=20 and K=10, an encoder's
halves differed from its whole-batch product at batches of 2-5 and 7-13
rows at hidden 512, and of 2-3 and 7-25 rows at hidden 96 (of batches of
2 to 200 rows).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import struct
import sys
import threading
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from dvae.data import Dataset, batches, sized
from dvae.distributions import MAX_SEED, Rng, stream_uniforms
from dvae.model import CHUNK_ROWS, DiscreteVae, ElboBreakdown, layer_sizes, prior_term
from dvae.network import Mlp, param_count

ENCODER_INIT_OFFSET = 1
DECODER_INIT_OFFSET = 2
SHUFFLE_OFFSET = 3
VALIDATION_OFFSET = 4
EXAMPLE_STREAM_BASE = 1_000_000

CHECKPOINT_MAGIC = b"DVAECKPT"
CHECKPOINT_VERSION = 1

METRICS_HEADER = "epoch,train_elbo,train_entropy,train_prior,train_recon,val_elbo,seconds"

# Work smaller than this many elements runs in turn in overlapped; the
# oracle's passes never reach overlapped. Only two sizes were measured
# when it was set: the suite's nets (under 1k encoder parameters) and the
# benchmark's 505k-parameter encoder. Between them the helper does not
# always pay. Two shapes above the gate, in 12 alternating pairs of fresh
# processes in turn and with the helper (each the median of five 5-epoch
# trains on 500 + 200 bars images, batch 100, after one more; one BLAS
# thread, 2-vCPU x86-64 host; medians of the 12):
# - 8x8 images, D=4, K=5, hidden 600 (51.0k encoder parameters): 91.6 ms
#   in turn against 96.9 ms with the helper, which was faster in 7 of 12;
# - 28x28 images, D=20, K=10, hidden 96 (94.8k): 274 against 214 ms, the
#   helper faster in 12 of 12.
OVERLAP_MIN_SIZE = 1 << 15

# An epoch's validation ELBO improves on the best only by more than this
# fraction of |best|: a rise within the summation's rounding (a collapsed
# run's ELBO can creep up ~1e-12 an epoch) does not reset patience.
IMPROVEMENT_TOLERANCE = 1e-9


class TrainingDiverged(RuntimeError):
    """The ELBO became non-finite during training."""


class CheckpointFormatError(ValueError):
    """Wrong magic or unsupported version."""


class CheckpointCorruptError(ValueError):
    """Header or payload inconsistent with the manifest."""


@dataclass
class TrainConfig:
    d_latents: int
    k_categories: int
    hidden_width: int = 512
    learning_rate: float = 1e-3
    batch_size: int = 100
    max_epochs: int = 50
    patience: int = 5
    seed: int = 42
    binarize_threshold: int = 128
    mc_samples: int = 1

    def __post_init__(self):
        for name in ("d_latents", "k_categories", "hidden_width", "batch_size",
                     "max_epochs", "patience", "mc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        # 0 is allowed as an explicit "no updates" control run.
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.seed <= MAX_SEED:  # Rng would alias it modulo 2^64
            raise ValueError(f"seed must lie in [0, {MAX_SEED}], got {self.seed}")
        if not 0 < self.binarize_threshold < 255:
            raise ValueError(f"threshold must lie in (0, 255), got {self.binarize_threshold}")


@dataclass
class MetricsRow:
    """One epoch's summary; epoch 0 is the pre-training state. seconds is
    wall-clock time since training started (not deterministic)."""

    epoch: int
    train_elbo: float
    train_entropy: float
    train_prior: float
    train_recon: float
    val_elbo: float
    seconds: float


@dataclass
class Checkpoint:
    """A deserialized model with the context it was saved under."""

    config: dict[str, str]
    model: DiscreteVae
    epoch: int
    rng_state: int


def build_model(config: TrainConfig, p: int) -> DiscreteVae:
    """Fresh model for pixel count p, seeded from the config; the encoder's
    and the decoder's init are drawn through overlapped."""
    d, k, hidden = config.d_latents, config.k_categories, config.hidden_width
    encoder_size = param_count(layer_sizes(p, d, k, hidden)[0])
    return DiscreteVae.create(p, d, k, hidden, Rng(config.seed + ENCODER_INIT_OFFSET),
                              Rng(config.seed + DECODER_INIT_OFFSET),
                              both=functools.partial(overlapped, size=encoder_size))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_callers = threading.local()  # .helper, .buffers: the calling thread's _Helper and _buffers


def _serve(handed: threading.Lock, jobs: list) -> None:
    """A helper thread's loop: take each job handed over, run there() in the
    job's context, leave its value or exception in the job's box and release
    the job's lock, until it takes None."""
    while True:
        handed.acquire()
        job = jobs.pop()
        if job is None:
            return
        context, there, box, ended = job
        try:
            box["value"] = context.run(there)
        except BaseException as exc:  # raised again on the caller
            box["error"] = exc
        ended.release()


class _Helper:
    """One calling thread's helper thread. A daemon, so that it never holds
    up the interpreter's exit, and sharing no reference to this object, so
    that dropping it stops the thread: threading.local drops it when its
    calling thread ends, and overlapped replaces it in a forked child, where
    the thread did not survive the fork."""

    def __init__(self):
        self.pid = os.getpid()
        self.handed = threading.Lock()
        self.handed.acquire()
        self.jobs: list = []
        threading.Thread(target=_serve, args=(self.handed, self.jobs), daemon=True).start()

    def __del__(self):
        self.jobs.append(None)
        self.handed.release()

    def hand(self, there) -> tuple[dict, threading.Lock]:
        """Hand there() over to run in a copy of this thread's context; the
        returned box is filled before the returned lock is released. Each job
        has a lock of its own: an interrupt can end an acquire just after it
        took the lock, so a caller that resumes waiting reads the box, and
        the lock is never taken twice."""
        box, ended = {}, threading.Lock()
        ended.acquire()
        self.jobs.append((contextvars.copy_context(), there, box, ended))
        self.handed.release()
        return box, ended


def overlapped(here, there, size: int) -> tuple:
    """Run here() on this thread while there() runs on this thread's helper
    thread in a copy of this thread's context (so numpy's error state
    carries over), and return (here(), there()) once both have ended. An
    exception raised by there() is raised again here, and one that
    interrupts the wait (KeyboardInterrupt) is raised once there() has
    ended; the helper then serves the next call. The helper starts on this
    thread's first call that overlaps and ends when this thread ends. size
    is the element count the work scales with (every caller passes the
    encoder's parameter count). Below OVERLAP_MIN_SIZE, or when this process
    may run on one CPU only, the two run in turn on this thread instead."""
    if size < OVERLAP_MIN_SIZE or _usable_cpus() < 2:
        return here(), there()
    helper = getattr(_callers, "helper", None)
    if helper is None or helper.pid != os.getpid():
        helper = _callers.helper = _Helper()
    box, ended = helper.hand(there)
    try:
        first = here()
    finally:
        interrupt = None
        while not box:
            try:
                ended.acquire()
            except BaseException as exc:  # there() still runs: wait on, then raise it
                interrupt = exc
        if interrupt is not None:
            raise interrupt
    if "error" in box:
        raise box["error"]
    return first, box["value"]


def _samples(net: DiscreteVae, images: np.ndarray, u: np.ndarray, rows) -> tuple:
    """(x, u) of the examples images[rows]: each example's row as float64
    (converted here, batch by batch; uncopied at one sample of float64
    images) once per Monte Carlo sample, and its uniforms, D per sample."""
    x, ux = images[rows].astype(np.float64, copy=False), u[rows]
    if ux.shape[1] > net.d:
        x = np.repeat(x, ux.shape[1] // net.d, axis=0)
    return x, ux.reshape(-1, net.d)


def _buffers(model: DiscreteVae, n: int) -> tuple:
    """This thread's buffers for a pass of model over n rows (each net's
    Mlp.buffers): its last pass's where they fit."""
    key, kept = model.encoder.sizes + model.decoder.sizes, getattr(_callers, "buffers", (None,))
    if kept[0] != key or len(kept[1][0][0]) < n:
        kept = _callers.buffers = key, (model.encoder.buffers(n), model.decoder.buffers(n))
    return kept[1]


def schedule(n: int, samples: int) -> list[tuple[slice, int]]:
    """A forward-only pass's jobs, (examples, blocks), over n examples of
    samples Monte Carlo samples each in blocks of at most CHUNK_ROWS: each
    pair of whole blocks, then an unpaired whole block and a short one."""
    step = max(1, CHUNK_ROWS // samples)  # examples per block
    paired = n - n % (2 * step)
    return ([(slice(i, i + 2 * step), 2) for i in range(0, paired, 2 * step)]
            + [(slice(i, i + step), 1) for i in range(paired, n, step)])


def _pass(model: DiscreteVae, images: np.ndarray, u: np.ndarray, jobs: list[tuple],
          lr: float | None = None, epoch: int = 0) -> list[float]:
    """Summed entropy and recon terms, [entropy, recon], of the ELBO
    estimates of the jobs' blocks, added block by block in order. Job
    (rows, blocks) is the rows images[rows], one per Monte Carlo sample,
    under u[rows], as that many equal blocks, estimated in two row halves
    (a pair's are its blocks). Given lr, each job is a batch: its estimate
    must be finite, and its mean gradient steps each net (not at lr 0),
    the encoder on the caller and the decoder on the helper; without, the
    pass is forward-only."""
    both = functools.partial(overlapped, size=model.encoder.params.size)
    sums = [0.0, 0.0]
    for i, (rows, blocks) in enumerate(jobs):
        x, ux = _samples(model, images, u, rows)
        bd, decoder_pass, encoder_pass = model.estimate(x, ux, both, _buffers(model, len(x)))
        for terms in np.split(np.array([bd.entropy_term, bd.recon_term]), blocks, axis=1):
            sums = [total + part.sum() for total, part in zip(sums, terms)]
        if lr is None:
            continue
        if not np.isfinite(bd.total).all():
            raise TrainingDiverged(f"non-finite ELBO estimate at epoch {epoch}, batch {i}")

        def side(net: Mlp, backward) -> None:
            backward()
            if lr > 0.0:  # the step takes the batch mean
                net.sga_step(lr, 1.0 / len(x))

        both(lambda: side(model.encoder, encoder_pass), lambda: side(model.decoder, decoder_pass))
    return sums


def _estimates(model: DiscreteVae, images: np.ndarray, u: np.ndarray) -> list[float]:
    """Summed entropy and recon terms, [entropy, recon], of the ELBO
    estimates of every row of images, one per Monte Carlo sample, under its
    uniforms u (u[i] holds example i's draws, D per sample): a forward-only
    _pass over schedule's jobs, so a sum changes only where a term does."""
    return _pass(model, images, u, schedule(len(images), u.shape[1] // model.d))


def _mean_breakdown(model: DiscreteVae, entropy_sum: float, recon_sum: float,
                    n: int) -> ElboBreakdown:
    return ElboBreakdown.from_terms(entropy_sum / n, prior_term(model.d, model.k), recon_sum / n)


def evaluate(model: DiscreteVae, dataset: Dataset, rng: Rng) -> ElboBreakdown:
    """Mean of single-sample ELBO estimates over the dataset, iterated in
    index order and drawing latents sequentially from rng."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    u = rng.uniforms(dataset.n * model.d).reshape(dataset.n, model.d)
    return _mean_breakdown(model, *_estimates(model, dataset.images, u), dataset.n)


def train(config: TrainConfig, train_set: Dataset, val_set: Dataset,
          checkpoint_path=None) -> tuple[DiscreteVae, list[MetricsRow]]:
    """Run the ascent loop: per batch, one forward pass over its examples,
    then each net's backward pass and step by the batch mean of its gradient
    (see _pass). Training stops when the mean validation ELBO has not
    improved for `patience` epochs or at max_epochs; the returned model
    carries the best-validation parameters.

    If checkpoint_path is given, the best model is also serialized there.
    """
    if val_set.n == 0:  # an empty training set fails the batch size check
        raise ValueError("the validation set is empty")
    if train_set.p != val_set.p:
        raise ValueError(f"pixel counts differ: train {train_set.p}, val {val_set.p}")
    if config.batch_size > train_set.n:
        raise ValueError(f"batch size {config.batch_size} exceeds dataset size {train_set.n}")
    model = build_model(config, train_set.p)
    shuffle_rng = Rng(config.seed + SHUFFLE_OFFSET)
    start = time.perf_counter()
    history: list[MetricsRow] = []

    # Example i's draws are drawn once, for every epoch.
    n_draws = config.mc_samples * config.d_latents
    # uint64 sums wrap modulo 2^64, as Rng wraps seed + EXAMPLE_STREAM_BASE + i.
    first = np.uint64((config.seed + EXAMPLE_STREAM_BASE) & MAX_SEED)
    u_train = stream_uniforms(first + np.arange(train_set.n, dtype=np.uint64), n_draws)
    n_samples = train_set.n * config.mc_samples

    def record(epoch: int, train_sums: list[float]) -> float:
        train_bd = _mean_breakdown(model, *train_sums, n_samples)
        val_total = evaluate(model, val_set, Rng(config.seed + VALIDATION_OFFSET)).total
        if not math.isfinite(val_total):
            raise TrainingDiverged(f"non-finite validation ELBO at epoch {epoch}")
        history.append(MetricsRow(
            epoch, train_bd.total, train_bd.entropy_term, train_bd.prior_term,
            train_bd.recon_term, val_total, time.perf_counter() - start,
        ))
        return val_total

    params = [model.encoder.params, model.decoder.params]

    def copy_params(sources, targets) -> None:
        for source, target in zip(sources, targets):
            np.copyto(target, source)

    # A diverging step overflows; the finite checks report it, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        best_val = record(0, _estimates(model, train_set.images, u_train))
        best_epoch = 0
        best = [net_params.copy() for net_params in params]
        best_rng_state = shuffle_rng.state

        for epoch in range(1, config.max_epochs + 1):
            jobs = [(rows, 1) for rows in batches(train_set, config.batch_size, shuffle_rng)]
            train_sums = _pass(model, train_set.images, u_train, jobs, config.learning_rate, epoch)
            val_total = record(epoch, train_sums)
            if val_total - best_val > IMPROVEMENT_TOLERANCE * abs(best_val):
                best_val = val_total
                best_epoch = epoch
                copy_params(params, best)
                best_rng_state = shuffle_rng.state
            elif epoch - best_epoch >= config.patience:
                break

    if best_epoch != history[-1].epoch:  # else the model holds the best already
        copy_params(best, params)
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, config=config, epoch=best_epoch,
                        rng_state=best_rng_state)
    return model, history


def write_metrics_csv(history: list[MetricsRow], path) -> None:
    """Metrics CSV, one row per epoch, floats formatted %.6f."""
    with open(path, "w", encoding="ascii") as f:
        f.write(METRICS_HEADER + "\n")
        for r in history:
            f.write("%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % astuple(r))


def _manifest(model: DiscreteVae) -> list[tuple[str, np.ndarray]]:
    """Checkpoint v1's tensors of model as (name, view) pairs in the order
    the writer lists them: the encoder's, then the decoder's, each layer's
    weights (w), then its bias (b)."""
    return [(f"{prefix}.{i}.{kind}", view)
            for prefix, net in (("enc", model.encoder), ("dec", model.decoder))
            for i, layer in enumerate(net.layers)
            for kind, view in (("w", layer.weights), ("b", layer.bias))]


def save_checkpoint(model: DiscreteVae, path, config: TrainConfig | None = None,
                    epoch: int = 0, rng_state: int = 0) -> None:
    """Serialize a model: 8-byte magic, uint32 version, a length-prefixed
    UTF-8 key=value header (config echo and tensor manifest), then each
    tensor as raw little-endian float64 in manifest order.

    The bytes go to a sibling temporary file that then replaces path, so a
    write that fails midway leaves any previous checkpoint intact."""
    lines = [f"d={model.d}", f"k={model.k}", f"p={model.p}",
             f"epoch={epoch}", f"rng_state={rng_state}"]
    if config is not None:
        lines += [f"cfg.{f.name}={getattr(config, f.name)}" for f in fields(config)]
    lines += [f"tensor={name} shape={','.join(str(s) for s in view.shape)}"
              for name, view in _manifest(model)]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for net in (model.encoder, model.decoder):  # params: its tensors in manifest order
                f.write(np.ascontiguousarray(net.params, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _header_count(meta: dict[str, str], key: str, least: int) -> int:
    """The header's value for key, which must be decimal digits >= least."""
    value = meta[key]
    if not value.isdecimal() or int(value) < least:
        raise ValueError(f"header {key}={value!r} is not a decimal integer >= {least}")
    return int(value)


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint back into a model plus its saved context.

    The model is the one the header's d, k and p and the first dimension of
    enc.0.w (the hidden width) describe, and the manifest must list exactly
    its tensors at their exact shapes, in any order. Each tensor is read
    straight from the file into its view of the model's params (a pipe is
    read whole first). Raises CheckpointFormatError on a wrong magic or
    version and CheckpointCorruptError when the header is malformed (a line
    without "=", a key other than tensor listed twice, a d, k or p other
    than decimal digits >= 1, an epoch or rng_state other than decimal
    digits, or an enc.0.w with no rows), the payload does not match the
    manifest, the manifest lists a tensor the model has no place for or one
    of the wrong shape, or a tensor holds a NaN or infinity.
    """
    with open(path, "rb") as f:
        source, length = sized(f)
        head = source.read(16)
        if length < 16 or head[:8] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
        version, header_len = struct.unpack("<II", head[8:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"{path}: version {version}, this build reads version {CHECKPOINT_VERSION}"
            )
        start = 16 + header_len
        if length < start:
            raise CheckpointCorruptError(f"{path}: truncated header")
        try:
            header = source.read(header_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointCorruptError(f"{path}: header is not UTF-8") from None

        meta: dict[str, str] = {}
        manifest: dict[str, tuple[int, ...]] = {}  # in file order
        for line in header.splitlines():
            key, equals, value = line.partition("=")
            if not equals:
                raise CheckpointCorruptError(f"{path}: header line {line!r} has no '='")
            if key == "tensor":
                name, _, shape_part = value.partition(" shape=")
                if name in manifest:
                    raise CheckpointCorruptError(f"{path}: tensor {name} is listed twice")
                dims = shape_part.split(",")
                if not all(dim.isdecimal() for dim in dims):
                    raise CheckpointCorruptError(
                        f"{path}: tensor {name} has malformed shape {shape_part!r}")
                manifest[name] = tuple(int(dim) for dim in dims)
            elif key in meta:
                raise CheckpointCorruptError(f"{path}: header key {key} is listed twice")
            else:
                meta[key] = value

        expected = sum(math.prod(shape) * 8 for shape in manifest.values())
        if length - start != expected:
            raise CheckpointCorruptError(
                f"{path}: payload is {length - start} bytes, manifest promises {expected}"
            )

        try:
            d, k, p, epoch, rng_state = (_header_count(meta, key, least) for key, least in (
                ("d", 1), ("k", 1), ("p", 1), ("epoch", 0), ("rng_state", 0)))
            hidden = manifest["enc.0.w"][0]
            if hidden < 1:
                raise ValueError("tensor enc.0.w has no rows; the hidden width must be >= 1")
            model = DiscreteVae(p, d, k, hidden)
            views = dict(_manifest(model))
            for name in manifest:
                if name not in views:
                    raise ValueError(f"tensor {name} has no place in the model")
            for name, view in views.items():  # exact shapes, no broadcasting
                if manifest[name] != view.shape:
                    raise ValueError(f"tensor {name} has shape {manifest[name]}, "
                                     f"expected {view.shape}")
        except KeyError as exc:
            raise CheckpointCorruptError(f"{path}: header lacks {exc}") from None
        except (ValueError, MemoryError) as exc:  # a misfit, a bad size, sizes too large
            raise CheckpointCorruptError(f"{path}: {exc}") from None

        for name in manifest:  # the payload lists the tensors in manifest order
            view = views[name]
            if source.readinto(view) != view.nbytes:  # the file shrank while it was read
                raise CheckpointCorruptError(f"{path}: payload ends inside tensor {name}")
            if sys.byteorder == "big":
                view.byteswap(inplace=True)
            if not np.isfinite(view).all():
                raise CheckpointCorruptError(f"{path}: tensor {name} holds a non-finite value")
    config = {key[4:]: value for key, value in meta.items() if key.startswith("cfg.")}
    return Checkpoint(config, model, epoch, rng_state)
