"""Shared helpers for the test suite."""

import math
import os
import struct
import tracemalloc

import numpy as np

from dvae import trainer
from dvae.data import synthetic_bars, write_idx
from dvae.distributions import Rng
from dvae.model import DiscreteVae, elbo_estimate


def write_bars_idx(path, n, side, seed):
    """n side x side bars from synthetic_bars(n, side, Rng(seed)), written to
    an IDX file at path as bytes 0 and 255; returns their Dataset."""
    ds = synthetic_bars(n, side, Rng(seed))
    write_idx(path, (ds.images.reshape(n, side, side) * 255).astype(np.uint8))
    return ds


def traced_peak(call):
    """call()'s tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_init_model(p=4, d=2, k=3, hidden=4):
    """Model with every weight and bias zero: uniform encoder rows, all-0.5
    decoder outputs."""
    return DiscreteVae(p, d, k, hidden)


def elbo_kl(p):
    """The ELBO's KL term for one latent row p against the uniform prior,
    ln K - H(p): elbo_estimate's -(entropy_term + prior_term)."""
    bd = elbo_estimate(np.zeros(1), np.asarray(p)[None, :], np.full(1, 0.5))
    return float(-(bd.entropy_term + bd.prior_term))


def open_overlap(monkeypatch, cpus=(0, 1)):
    """Let trainer.overlapped use its helper thread at any positive size
    (the suite's nets are all below its size gate), as if this process may
    run on cpus."""
    monkeypatch.setattr(trainer, "OVERLAP_MIN_SIZE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def read_tensors(path):
    """A checkpoint's non-tensor header lines and its (name, shape, values)
    tensors in manifest order."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[12:16])
    meta, tensors, offset = [], [], 16 + header_len
    for line in blob[16:16 + header_len].decode().splitlines():
        name, _, dims = line.removeprefix("tensor=").partition(" shape=")
        if not dims:
            meta.append(line)
            continue
        shape = tuple(int(s) for s in dims.split(","))
        values = np.frombuffer(blob, "<f8", math.prod(shape), offset)
        tensors.append((name, shape, values))
        offset += values.nbytes
    return meta, tensors


def write_tensors(path, meta, tensors):
    """A version-1 checkpoint with these header lines and tensors."""
    header = "".join(f"{line}\n" for line in meta) + "".join(
        f"tensor={name} shape={','.join(map(str, shape))}\n" for name, shape, _ in tensors)
    header = header.encode()
    path.write_bytes(trainer.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header
                     + b"".join(np.asarray(v, "<f8").tobytes() for _, _, v in tensors))


def write_third_layer_checkpoint(path):
    """A checkpoint whose encoder has a third layer, [16, 8, 8, 6], before a
    [6, 4, 16] decoder at D=2, K=3: a net pair no DiscreteVae holds."""
    shapes = [("enc.0", 8, 16), ("enc.1", 8, 8), ("enc.2", 6, 8), ("dec.0", 4, 6), ("dec.1", 16, 4)]
    tensors = [(f"{layer}.{kind}", shape, np.full(shape, 0.1))
               for layer, fan_out, fan_in in shapes
               for kind, shape in (("w", (fan_out, fan_in)), ("b", (fan_out,)))]
    write_tensors(path, ["d=2", "k=3", "p=16", "epoch=0", "rng_state=0"], tensors)
