"""Stochastic-gradient-ascent training loop with validation-ELBO early
stopping, plus model evaluation, checkpoint serialization and metrics rows.

Random streams are all derived from the single config seed by fixed,
documented offsets:

    seed + 1               encoder parameter init
    seed + 2               decoder parameter init
    seed + 3               epoch shuffling (one stream, advancing over epochs)
    seed + 4               validation sampling (re-seeded every epoch, so
                           validation uses common draws across epochs)
    seed + 1_000_000 + i   gradient sampling for training example i
                           (re-seeded every epoch, so a frozen model yields
                           identical metrics in every epoch)

Per-example streams keyed by dataset index make the recorded per-example
ELBO values independent of batch order, and make a zero-learning-rate run
produce the same metrics row every epoch.

Work on the encoder's side runs on a helper thread next to the decoder's
side on the caller (model.overlapped; the helper takes the encoder because
its temporaries are the narrow ones, see dvae.model): in each training step
the encoder's backward pass and then its SGA step, and in the forward-only
ELBO sums (evaluation and the epoch-0 training row) the encoding and
sampling of the next chunk while the caller decodes this one. Every array
operation and every sum runs as it would in turn, so the metrics and
parameters are byte-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import time
from dataclasses import dataclass, fields

import numpy as np

from dvae.data import Dataset, batches
from dvae.distributions import MAX_SEED, Rng, stream_uniforms
from dvae.model import CHUNK_ROWS, DiscreteVae, ElboBreakdown, elbo_estimate, overlapped
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


def _samples(images: np.ndarray, u: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of images repeated once per Monte Carlo sample, with each
    sample's D uniforms: u[i] holds example i's draws, D per sample. With
    one sample per example, images are returned uncopied."""
    mc = u.shape[1] // d
    return images if mc == 1 else np.repeat(images, mc, axis=0), u.reshape(-1, d)


def _elbo_sums(model: DiscreteVae, images: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Summed entropy and recon terms of the single-sample ELBO estimates of
    the rows of images under their uniforms u, in forward-only chunks of at
    most CHUNK_ROWS samples. A helper thread encodes and samples the next
    chunk while this one decodes the current chunk; the sums are added in
    chunk order."""
    step = max(1, CHUNK_ROWS * model.d // u.shape[1])  # examples per chunk

    def encoded(start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, ux = _samples(images[start:start + step], u[start:start + step], model.d)
        probs = model.encode(x)
        return x, probs, model.sample_latent(probs, ux)

    def decoded(x: np.ndarray, probs: np.ndarray, z: np.ndarray) -> ElboBreakdown:
        return elbo_estimate(x, probs, model.decode(z))

    entropy_sum = recon_sum = 0.0
    ahead = encoded(0)
    for start in range(0, len(images), step):
        current = ahead
        if start + step < len(images):
            bd, ahead = overlapped(lambda: decoded(*current), lambda: encoded(start + step),
                                   model.encoder.params.size)
        else:
            bd = decoded(*current)
        entropy_sum += bd.entropy_term.sum()
        recon_sum += bd.recon_term.sum()
    return entropy_sum, recon_sum


def _mean_breakdown(model: DiscreteVae, entropy_sum: float, recon_sum: float,
                    n: int) -> ElboBreakdown:
    return ElboBreakdown.from_terms(entropy_sum / n, -model.d * math.log(model.k),
                                    recon_sum / n)


def evaluate(model: DiscreteVae, dataset: Dataset, rng: Rng) -> ElboBreakdown:
    """Mean of single-sample ELBO estimates over the dataset, iterated in
    index order and drawing latents sequentially from rng."""
    u = rng.uniforms(dataset.n * model.d).reshape(dataset.n, model.d)
    return _mean_breakdown(model, *_elbo_sums(model, dataset.images, u), dataset.n)


def train(config: TrainConfig, train_set: Dataset, val_set: Dataset,
          checkpoint_path=None) -> tuple[DiscreteVae, list[MetricsRow]]:
    """Run the ascent loop: per batch, one gradient pass over its examples,
    averaged, then one step of each net, the encoder's on a helper thread
    while the decoder's runs on this one (the two write disjoint vectors, so
    their order does not matter). Training stops
    when the mean validation ELBO has not improved for `patience` epochs or
    at max_epochs; the returned model carries the best-validation parameters.

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

    def record(epoch: int, train_bd: ElboBreakdown, val_bd: ElboBreakdown) -> None:
        history.append(MetricsRow(
            epoch, train_bd.total, train_bd.entropy_term, train_bd.prior_term,
            train_bd.recon_term, val_bd.total, time.perf_counter() - start,
        ))

    def validate(epoch: int) -> ElboBreakdown:
        bd = evaluate(model, val_set, Rng(config.seed + VALIDATION_OFFSET))
        if not math.isfinite(bd.total):
            raise TrainingDiverged(f"non-finite validation ELBO at epoch {epoch}")
        return bd

    # Example i's stream is re-seeded every epoch, so its draws never change.
    n_draws = config.mc_samples * config.d_latents
    # uint64 sums wrap modulo 2^64, as Rng wraps seed + EXAMPLE_STREAM_BASE + i.
    first = np.uint64((config.seed + EXAMPLE_STREAM_BASE) & MAX_SEED)
    u_train = stream_uniforms(first + np.arange(train_set.n, dtype=np.uint64), n_draws)
    n_samples = train_set.n * config.mc_samples

    val_bd = validate(0)
    record(0, _mean_breakdown(model, *_elbo_sums(model, train_set.images, u_train),
                              n_samples), val_bd)
    best_val = val_bd.total
    best_epoch = 0
    best_phi = model.encoder.params.copy()
    best_theta = model.decoder.params.copy()
    best_rng_state = shuffle_rng.state
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        entropy_sum = recon_sum = 0.0
        for batch_i, batch in enumerate(batches(train_set, config.batch_size, shuffle_rng)):
            bd = model.compute_gradients(*_samples(train_set.images[batch], u_train[batch],
                                                   config.d_latents))
            if not np.isfinite(bd.total).all():
                raise TrainingDiverged(
                    f"non-finite ELBO estimate at epoch {epoch}, batch {batch_i}"
                )
            entropy_sum += bd.entropy_term.sum()
            recon_sum += bd.recon_term.sum()
            if config.learning_rate > 0.0:  # each step takes the batch mean
                scale = 1.0 / (len(batch) * config.mc_samples)
                overlapped(lambda: model.decoder.sga_step(config.learning_rate, scale),
                           lambda: model.encoder.sga_step(config.learning_rate, scale),
                           model.encoder.params.size)
        train_bd = _mean_breakdown(model, entropy_sum, recon_sum, n_samples)
        val_bd = validate(epoch)
        record(epoch, train_bd, val_bd)
        if val_bd.total > best_val:
            best_val = val_bd.total
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
    CheckpointCorruptError when the header is malformed or the payload does
    not match the manifest.
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
