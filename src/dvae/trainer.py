"""Stochastic-gradient-ascent training loop with validation-ELBO early
stopping, plus model evaluation, checkpoint serialization and metrics rows.

Random streams are all derived from the single config seed by fixed,
documented offsets:

    seed + 1               encoder parameter init
    seed + 2               decoder parameter init
    seed + 3               epoch shuffling (one stream, advancing over epochs)
    seed + 4               validation sampling (drawn once, so every epoch
                           validates on the same draws)
    seed + 1_000_000 + i   gradient sampling for training example i
                           (drawn once, so a frozen model yields identical
                           metrics in every epoch)

Per-example streams keyed by dataset index make the recorded per-example
ELBO values independent of batch order, and make a zero-learning-rate run
produce the same metrics row every epoch.

An epoch's training steps are one pass over its batches (_pass): this thread
decodes each batch while a helper thread (overlapped) encodes and samples
the next; after a batch's estimate the helper first runs the encoder's
backward pass and step, this thread the decoder's. Forward-only estimates
(_estimates: evaluate, each epoch's validation and the epoch-0 row) split
their examples in two halves, this thread taking the first and the helper
the second. This is the only module that starts threads. Each net runs the
same array operations in the same order as in turn, and sums are added in
the same order, so metrics and parameters are byte-identical.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import struct
import threading
import time
from dataclasses import dataclass, fields

import numpy as np

from dvae.data import Dataset, batches
from dvae.distributions import MAX_SEED, Rng, stream_uniforms
from dvae.model import (CHUNK_ROWS, DiscreteVae, ElboBreakdown, d_elbo_d_probs, d_recon_d_xhat,
                        elbo_estimate)
from dvae.network import HEAD_SIGMOID, HEAD_SOFTMAX, Mlp
from dvae.tensor import ShapeError

ENCODER_INIT_OFFSET = 1
DECODER_INIT_OFFSET = 2
SHUFFLE_OFFSET = 3
VALIDATION_OFFSET = 4
EXAMPLE_STREAM_BASE = 1_000_000

CHECKPOINT_MAGIC = b"DVAECKPT"
CHECKPOINT_VERSION = 1

METRICS_HEADER = "epoch,train_elbo,train_entropy,train_prior,train_recon,val_elbo,seconds"

# Work smaller than this many elements runs in turn in overlapped. It
# separates desk-scale training, such as the test suite's bars nets (a few
# hundred encoder parameters), from MNIST-size training (about 500k); the
# oracle's B=1 passes never reach overlapped.
OVERLAP_MIN_SIZE = 1 << 15


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
                     "max_epochs", "mc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
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

    version: int
    config: dict[str, str]
    model: DiscreteVae
    epoch: int
    rng_state: int


def build_model(config: TrainConfig, p: int) -> DiscreteVae:
    """Fresh model for pixel count p, seeded from the config."""
    return DiscreteVae.create(
        p, config.d_latents, config.k_categories, config.hidden_width,
        Rng(config.seed + ENCODER_INIT_OFFSET),
        Rng(config.seed + DECODER_INIT_OFFSET),
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def overlapped(here, there, size: int) -> tuple:
    """Run here() on this thread while there() runs on a new helper thread
    in a copy of this thread's context (so numpy's error state carries over),
    join the helper, and return (here(), there()); an exception raised by
    there() is raised again here. size is the element count the work scales
    with (both callers pass the encoder's parameter count). Below
    OVERLAP_MIN_SIZE, or when this process may run on one CPU only, the two
    run in turn on this thread instead: numpy holds the interpreter lock
    through operations on small arrays, so two threads would only pass it
    back and forth, and on one CPU the helper only adds its own malloc arena
    and thread switches (perfbench train-mnist784 pinned to one CPU of a
    2-vCPU x86-64 host: peak RSS 85.6 -> 89.6 MB, 7% more time without it).

    Each thread that allocates gets its own malloc arena, so the helper takes
    the encoder's side of a training batch: its temporaries are D*K wide, the
    decoder's P wide (784 at MNIST shape). Taking both nets of a forward-only
    estimate's second half, its arena also holds decoder temporaries
    (perfbench eval-mnist784: peak RSS 87.9 -> 90.8 MB)."""
    if size < OVERLAP_MIN_SIZE or _usable_cpus() < 2:
        return here(), there()
    box = {}

    def helper() -> None:
        try:
            box["value"] = there()
        except BaseException as exc:  # raised again on the caller
            box["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        first = here()
    finally:
        thread.join()
    if "error" in box:
        raise box["error"]
    return first, box["value"]


def _samples(images: np.ndarray, u: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of images repeated once per Monte Carlo sample, with each
    sample's D uniforms: u[i] holds example i's draws, D per sample. With
    one sample per example, images are returned uncopied."""
    mc = u.shape[1] // d
    return images if mc == 1 else np.repeat(images, mc, axis=0), u.reshape(-1, d)


def _pass(model: DiscreteVae, images: np.ndarray, u: np.ndarray, indices: list[np.ndarray],
          lr: float, epoch: int) -> list[float]:
    """Summed entropy and recon terms, [entropy, recon], of the ELBO
    estimates of one epoch's training batches, added in batch order. Batch i
    is the rows images[indices[i]], one per Monte Carlo sample, under
    u[indices[i]]; its estimate must be finite, and its mean gradient steps
    each net (not at lr 0). This thread decodes each batch while the helper
    encodes and samples the next; after a batch's estimate, the helper first
    runs the encoder's backward pass and step and this thread the decoder's."""
    sums = [0.0, 0.0]

    def encoded(rows: np.ndarray | None) -> tuple | None:
        if rows is None:
            return None
        x, ux = _samples(images[rows], u[rows], model.d)
        probs = model.encode(x := np.asarray(x, dtype=np.float64))
        return x, probs, model.sample_latent(probs, ux)

    ahead = encoded(indices[0])
    for i, following in enumerate(indices[1:] + [None]):
        x, probs, z = ahead
        xhat = model.decode(z)
        bd = elbo_estimate(x, probs, xhat)
        if not np.isfinite(bd.total).all():
            raise TrainingDiverged(f"non-finite ELBO estimate at epoch {epoch}, batch {i}")

        def side(net: Mlp, rows: np.ndarray | None, upstream, *args) -> tuple | None:
            net.backward(upstream(*args))
            if lr > 0.0:  # the step takes the batch mean
                net.sga_step(lr, 1.0 / len(x))
            return encoded(rows)

        _, ahead = overlapped(
            lambda: side(model.decoder, None, d_recon_d_xhat, x, xhat),
            lambda: side(model.encoder, following, d_elbo_d_probs, probs, z, bd.recon_term),
            model.encoder.params.size)
        sums[0] += bd.entropy_term.sum()
        sums[1] += bd.recon_term.sum()
    return sums


def _estimates(model: DiscreteVae, images: np.ndarray, u: np.ndarray) -> list[float]:
    """Summed entropy and recon terms, [entropy, recon], of the ELBO
    estimates of every row of images, one per Monte Carlo sample, under its
    uniforms u (u[i] holds example i's draws, D per sample). The examples
    split at n // 2: this thread estimates the first half on model, the
    helper the second on a forward-only view of the same parameters (a
    one-row stack: its own forward caches, no gradient buffer), each in
    chunks of at most CHUNK_ROWS samples. The per-sample terms are summed in
    such chunks from the first, so a sum changes only where a term does."""
    n, mc = len(images), u.shape[1] // model.d
    step = max(1, CHUNK_ROWS // mc)  # examples per chunk
    terms = np.empty((2, n * mc))
    view = model.with_params(model.encoder.params[None], model.decoder.params[None])

    def estimate(net: DiscreteVae, start: int, stop: int) -> None:
        for first in range(start, stop, step):
            last = min(first + step, stop)
            x, ux = _samples(images[first:last], u[first:last], model.d)
            probs = net.encode(x)
            bd = elbo_estimate(x, probs, net.decode(net.sample_latent(probs, ux)))
            samples = slice(first * mc, last * mc)
            terms[0, samples], terms[1, samples] = bd.entropy_term, bd.recon_term

    overlapped(lambda: estimate(model, 0, n // 2), lambda: estimate(view, n // 2, n),
               model.encoder.params.size)
    return [sum(row[i:i + step * mc].sum() for i in range(0, n * mc, step * mc)) for row in terms]


def _mean_breakdown(model: DiscreteVae, entropy_sum: float, recon_sum: float,
                    n: int) -> ElboBreakdown:
    return ElboBreakdown.from_terms(entropy_sum / n, -model.d * math.log(model.k),
                                    recon_sum / n)


def evaluate(model: DiscreteVae, dataset: Dataset, rng: Rng) -> ElboBreakdown:
    """Mean of single-sample ELBO estimates over the dataset, iterated in
    index order and drawing latents sequentially from rng."""
    u = rng.uniforms(dataset.n * model.d).reshape(dataset.n, model.d)
    return _mean_breakdown(model, *_estimates(model, dataset.images, u), dataset.n)


def train(config: TrainConfig, train_set: Dataset, val_set: Dataset,
          checkpoint_path=None) -> tuple[DiscreteVae, list[MetricsRow]]:
    """Run the ascent loop: per batch, one forward pass over its examples,
    then each net's backward pass and step by the batch mean of its gradient,
    the encoder's on a helper thread, together with the next batch's encoding,
    while the decoder's run on this one (see _pass). Training stops when the
    mean validation ELBO has not improved for `patience` epochs or at
    max_epochs; the returned model carries the best-validation parameters.

    If checkpoint_path is given, the best model is also serialized there.
    """
    if train_set.p != val_set.p:
        raise ValueError(f"pixel counts differ: train {train_set.p}, val {val_set.p}")
    if config.batch_size > train_set.n:
        raise ValueError(f"batch size {config.batch_size} exceeds dataset size {train_set.n}")
    model = build_model(config, train_set.p)
    shuffle_rng = Rng(config.seed + SHUFFLE_OFFSET)
    start = time.perf_counter()
    history: list[MetricsRow] = []

    # Example i's draws and the validation draws are drawn once, for every epoch.
    n_draws = config.mc_samples * config.d_latents
    # uint64 sums wrap modulo 2^64, as Rng wraps seed + EXAMPLE_STREAM_BASE + i.
    first = np.uint64((config.seed + EXAMPLE_STREAM_BASE) & MAX_SEED)
    u_train = stream_uniforms(first + np.arange(train_set.n, dtype=np.uint64), n_draws)
    n_samples = train_set.n * config.mc_samples
    u_val = Rng(config.seed + VALIDATION_OFFSET).uniforms(val_set.n * config.d_latents)
    u_val = u_val.reshape(val_set.n, config.d_latents)

    def record(epoch: int, train_sums: list[float], val_sums: list[float]) -> float:
        train_bd = _mean_breakdown(model, *train_sums, n_samples)
        val_bd = _mean_breakdown(model, *val_sums, val_set.n)
        if not math.isfinite(val_bd.total):
            raise TrainingDiverged(f"non-finite validation ELBO at epoch {epoch}")
        history.append(MetricsRow(
            epoch, train_bd.total, train_bd.entropy_term, train_bd.prior_term,
            train_bd.recon_term, val_bd.total, time.perf_counter() - start,
        ))
        return val_bd.total

    # A diverging step overflows; the finite checks report it, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        best_val = record(0, _estimates(model, train_set.images, u_train),
                          _estimates(model, val_set.images, u_val))
        best_epoch = 0
        best_phi = model.encoder.params.copy()
        best_theta = model.decoder.params.copy()
        best_rng_state = shuffle_rng.state
        stale = 0

        for epoch in range(1, config.max_epochs + 1):
            train_sums = _pass(model, train_set.images, u_train,
                               batches(train_set, config.batch_size, shuffle_rng),
                               config.learning_rate, epoch)
            val_total = record(epoch, train_sums, _estimates(model, val_set.images, u_val))
            if val_total > best_val:
                best_val = val_total
                best_epoch = epoch
                best_phi[:] = model.encoder.params
                best_theta[:] = model.decoder.params
                best_rng_state = shuffle_rng.state
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break

    model.encoder.params[:] = best_phi
    model.decoder.params[:] = best_theta
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, config=config, epoch=best_epoch,
                        rng_state=best_rng_state)
    return model, history


def write_metrics_csv(history: list[MetricsRow], path) -> None:
    """Metrics CSV, one row per epoch, floats formatted %.6f."""
    with open(path, "w", encoding="ascii") as f:
        f.write(METRICS_HEADER + "\n")
        for r in history:
            f.write("%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n" % (
                r.epoch, r.train_elbo, r.train_entropy, r.train_prior,
                r.train_recon, r.val_elbo, r.seconds))


def save_checkpoint(model: DiscreteVae, path, config: TrainConfig | None = None,
                    epoch: int = 0, rng_state: int = 0) -> None:
    """Serialize a model: 8-byte magic, uint32 version, a length-prefixed
    UTF-8 key=value header (config echo and tensor manifest), then each
    tensor as raw little-endian float64 in manifest order.

    The bytes go to a sibling temporary file that then replaces path, so a
    write that fails midway leaves any previous checkpoint intact."""
    nets = (("enc", model.encoder), ("dec", model.decoder))
    lines = [f"d={model.d}", f"k={model.k}", f"p={model.p}",
             f"epoch={epoch}", f"rng_state={rng_state}"]
    if config is not None:
        lines += [f"cfg.{f.name}={getattr(config, f.name)}" for f in fields(config)]
    lines += [f"tensor={prefix}.{i}.{kind} shape={','.join(str(s) for s in arr.shape)}"
              for prefix, net in nets for i, layer in enumerate(net.layers)
              for kind, arr in (("w", layer.weights), ("b", layer.bias))]
    header = ("\n".join(lines) + "\n").encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for _, net in nets:  # params is every tensor in manifest order
                f.write(np.ascontiguousarray(net.params, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint back into a model plus its saved context.

    Tensors are looked up by name, so the manifest may list them in any
    order. Raises CheckpointFormatError on a wrong magic or version and
    CheckpointCorruptError when the header is malformed, the payload does
    not match the manifest or a tensor holds a NaN or infinity.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", blob[8:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: version {version}, this build reads version {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack("<I", blob[12:16])
    start = 16 + header_len
    if len(blob) < start:
        raise CheckpointCorruptError(f"{path}: truncated header")
    try:
        header = blob[16:start].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointCorruptError(f"{path}: header is not UTF-8") from None

    meta: dict[str, str] = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for line in header.splitlines():
        key, _, value = line.partition("=")
        if key == "tensor":
            name, _, shape_part = value.partition(" shape=")
            if any(name == seen for seen, _ in manifest):
                raise CheckpointCorruptError(f"{path}: tensor {name} is listed twice")
            dims = shape_part.split(",")
            if not all(dim.isdecimal() for dim in dims):
                raise CheckpointCorruptError(
                    f"{path}: tensor {name} has malformed shape {shape_part!r}")
            manifest.append((name, tuple(int(dim) for dim in dims)))
        else:
            meta[key] = value

    expected = sum(math.prod(shape) * 8 for _, shape in manifest)
    if len(blob) - start != expected:
        raise CheckpointCorruptError(
            f"{path}: payload is {len(blob) - start} bytes, manifest promises {expected}"
        )

    tensors: dict[str, np.ndarray] = {}
    offset = start
    for name, shape in manifest:
        count = math.prod(shape)
        tensors[name] = np.frombuffer(  # read-only; copied into the net's params
            blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += count * 8
        if not np.isfinite(tensors[name]).all():
            raise CheckpointCorruptError(f"{path}: tensor {name} holds a non-finite value")

    def load_net(prefix: str, head: str, softmax_shape=None) -> Mlp:
        n_layers = sum(1 for n in tensors if n.startswith(f"{prefix}.") and n.endswith(".w"))
        if n_layers == 0:
            raise KeyError(f"{prefix}.0.w")
        weights = [tensors[f"{prefix}.{i}.w"] for i in range(n_layers)]
        for i, w in enumerate(weights):
            if w.ndim != 2:
                raise ShapeError(f"tensor {prefix}.{i}.w has shape {w.shape}, not 2-D")
        net = Mlp([weights[0].shape[1]] + [w.shape[0] for w in weights], head, softmax_shape)
        # Exact shapes, no broadcasting; a layer that does not chain fails here.
        for i, layer in enumerate(net.layers):
            for kind, view in (("w", layer.weights), ("b", layer.bias)):
                name = f"{prefix}.{i}.{kind}"
                if tensors[name].shape != view.shape:
                    raise ShapeError(
                        f"tensor {name} has shape {tensors[name].shape}, expected {view.shape}"
                    )
                view[...] = tensors[name]
        return net

    try:
        d, k = int(meta["d"]), int(meta["k"])
        encoder = load_net("enc", HEAD_SOFTMAX, softmax_shape=(d, k))
        decoder = load_net("dec", HEAD_SIGMOID)
        model = DiscreteVae(encoder, decoder, d, k)
        if int(meta["p"]) != model.p:
            raise ShapeError(f"header p={meta['p']} != decoder output {model.p}")
        epoch, rng_state = int(meta["epoch"]), int(meta["rng_state"])
    except KeyError as exc:
        raise CheckpointCorruptError(f"{path}: header lacks {exc}") from None
    except ValueError as exc:  # ShapeError, or a header value that is not an integer
        raise CheckpointCorruptError(f"{path}: {exc}") from None
    config = {key[4:]: value for key, value in meta.items() if key.startswith("cfg.")}
    return Checkpoint(version, config, model, epoch, rng_state)
