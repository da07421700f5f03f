import struct
import warnings

import numpy as np
import pytest

from dvae.cli import build_parser, main
from dvae.data import load_binarized, synthetic_bars, write_idx
from dvae.distributions import Rng
from dvae.network import HEAD_SOFTMAX, Mlp
from dvae.trainer import (
    CheckpointCorruptError,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)
from helpers import open_overlap, zero_init_model


def write_bars_idx(path, n, side, seed):
    ds = synthetic_bars(n, side, Rng(seed))
    raw = (ds.images.reshape(n, side, side) * 255).astype(np.uint8)
    write_idx(path, raw)
    return ds


@pytest.fixture
def bars_files(tmp_path):
    train = tmp_path / "train.idx3-ubyte"
    val = tmp_path / "val.idx3-ubyte"
    write_bars_idx(train, 60, 4, 100)
    write_bars_idx(val, 20, 4, 101)
    return train, val


def train_args(train, val, out, **over):
    flags = {"d": 2, "k": 4, "hidden": 8, "lr": 1e-2, "batch": 20, "epochs": 2,
             "patience": 5, "seed": 42, "threshold": 128}
    flags.update(over)
    argv = ["train", "--train-images", str(train), "--val-images", str(val),
            "--out", str(out)]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return argv


def drop_seconds(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


# `verify --suite all` as recorded from per-coordinate finite differences:
# (exit code, text) per seed. Seed 7 fails frac-above-3z. On seed 2^64 - 1
# the suites' own seed offsets wrap past 2^64, as Rng wraps them, and so do
# the seeds of the stacked tiny models.
VERIFY_ALL_GOLDEN = {
    3: (0, (
        "PASS decoder-grad-vs-finite-diff measured=2.339e-07 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-vs-finite-diff measured=3.870e-07 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-mc-mean-max-z measured=1.833e+00 tolerance=5.000e+00 (200000 draws)\n"
        "PASS encoder-grad-mc-mean-frac-above-3z measured=0.000e+00 tolerance=1.000e-02"
        " (94 parameters)\n"
        "PASS elbo-estimate-mc-mean-z measured=6.715e-01 tolerance=5.000e+00"
        " (exact -3.213202, mean -3.212627)\n"
        "PASS elbo-lower-bound-min-slack measured=9.858e-03 tolerance=-1.000e-10"
        " (100 models, pass if >= tolerance)\n"
        "PASS log-likelihood-identity-residual measured=1.707e-15 tolerance=1.000e-08"
        " (100 models)\n"
        "all checks passed\n"
    )),
    7: (1, (
        "PASS decoder-grad-vs-finite-diff measured=2.832e-09 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-vs-finite-diff measured=5.216e-07 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-mc-mean-max-z measured=3.256e+00 tolerance=5.000e+00 (200000 draws)\n"
        "FAIL encoder-grad-mc-mean-frac-above-3z measured=9.574e-02 tolerance=1.000e-02"
        " (94 parameters)\n"
        "PASS elbo-estimate-mc-mean-z measured=6.753e-01 tolerance=5.000e+00"
        " (exact -3.182749, mean -3.182404)\n"
        "PASS elbo-lower-bound-min-slack measured=1.713e-02 tolerance=-1.000e-10"
        " (100 models, pass if >= tolerance)\n"
        "PASS log-likelihood-identity-residual measured=1.776e-15 tolerance=1.000e-08"
        " (100 models)\n"
        "VERIFICATION FAILED\n"
    )),
    42: (0, (
        "PASS decoder-grad-vs-finite-diff measured=4.450e-08 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-vs-finite-diff measured=1.503e-07 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-mc-mean-max-z measured=7.486e-01 tolerance=5.000e+00 (200000 draws)\n"
        "PASS encoder-grad-mc-mean-frac-above-3z measured=0.000e+00 tolerance=1.000e-02"
        " (94 parameters)\n"
        "PASS elbo-estimate-mc-mean-z measured=4.348e-01 tolerance=5.000e+00"
        " (exact -2.682487, mean -2.682599)\n"
        "PASS elbo-lower-bound-min-slack measured=6.667e-03 tolerance=-1.000e-10"
        " (100 models, pass if >= tolerance)\n"
        "PASS log-likelihood-identity-residual measured=2.123e-15 tolerance=1.000e-08"
        " (100 models)\n"
        "all checks passed\n"
    )),
    2**64 - 1: (0, (
        "PASS decoder-grad-vs-finite-diff measured=1.521e-08 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-vs-finite-diff measured=7.904e-07 tolerance=1.000e-04"
        " (max scaled error over 10 nets)\n"
        "PASS encoder-grad-mc-mean-max-z measured=1.758e+00 tolerance=5.000e+00 (200000 draws)\n"
        "PASS encoder-grad-mc-mean-frac-above-3z measured=0.000e+00 tolerance=1.000e-02"
        " (94 parameters)\n"
        "PASS elbo-estimate-mc-mean-z measured=6.438e-01 tolerance=5.000e+00"
        " (exact -2.936437, mean -2.936571)\n"
        "PASS elbo-lower-bound-min-slack measured=5.071e-03 tolerance=-1.000e-10"
        " (100 models, pass if >= tolerance)\n"
        "PASS log-likelihood-identity-residual measured=1.874e-15 tolerance=1.000e-08"
        " (100 models)\n"
        "all checks passed\n"
    )),
}


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["train", "--val-images", "x", "--out", "y"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        assert main(["verify", "--nonsense"]) == 2

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "everything"]) == 2

    @staticmethod
    def seed_argv(command, bars_files, tmp_path):
        """Arguments of a run of command that would succeed with --seed 0."""
        train, val = bars_files
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt)
        out = tmp_path / "out"
        return {
            "train": train_args(train, val, out),
            "eval": ["eval", "--model", str(ckpt), "--images", str(val)],
            "reconstruct": ["reconstruct", "--model", str(ckpt), "--images", str(val),
                            "--out", str(out)],
            "sample": ["sample", "--model", str(ckpt), "--out", str(out)],
            "verify": ["verify", "--suite", "bound"],
        }[command], out

    @pytest.mark.parametrize("command", ["train", "eval", "reconstruct", "sample", "verify"])
    def test_negative_seed_exits_2(self, bars_files, tmp_path, capsys, command):
        # Rng would reduce -5 modulo 2^64 and run as seed 2^64 - 5
        argv, out = self.seed_argv(command, bars_files, tmp_path)
        assert main(argv + ["--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines()[-1] == (
            f"dvae {command}: error: argument --seed: must be non-negative, got -5")

    @pytest.mark.parametrize("command", ["train", "eval", "reconstruct", "sample", "verify"])
    def test_seed_of_2_to_the_64_exits_2(self, bars_files, tmp_path, capsys, command):
        # Rng would reduce 2^64 + 5 modulo 2^64 and run as seed 5
        argv, out = self.seed_argv(command, bars_files, tmp_path)
        assert main(argv + ["--seed", str(2**64 + 5)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines()[-1] == (
            f"dvae {command}: error: argument --seed: must be at most {2**64 - 1}, "
            f"got {2**64 + 5}")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(train_args(tmp_path / "nope", tmp_path / "nope2", tmp_path / "out"))
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_input_path_through_a_file_exits_2(self, bars_files, tmp_path, capsys):
        train, val = bars_files
        code = main(train_args(train, val / "x", tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_2(self, bars_files, tmp_path, capsys):
        train, val = bars_files
        taken = tmp_path / "taken"
        taken.write_text("keep")
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        commands = [
            train_args(train, val, taken),
            ["reconstruct", "--model", str(ckpt_path), "--images", str(val),
             "--n", "2", "--out", str(taken)],
            ["sample", "--model", str(ckpt_path), "--n", "2", "--out", str(taken)],
        ]
        for argv in commands:
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err.strip().splitlines()
            assert err[-1].startswith("error:") and str(taken) in err[-1]
            assert taken.read_text() == "keep"


class TestTrainCommand:
    def test_writes_outputs_and_prints_final_elbo(self, bars_files, tmp_path, capsys):
        train, val = bars_files
        out = tmp_path / "run"
        assert main(train_args(train, val, out)) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "model.ckpt").exists()
        assert "final validation ELBO:" in capsys.readouterr().out

    def test_zero_lr_rows_equal_epoch0(self, bars_files, tmp_path):
        train, val = bars_files
        out = tmp_path / "run"
        assert main(train_args(train, val, out, lr=0)) == 0
        lines = drop_seconds((out / "metrics.csv").read_text())
        first_values = lines[1].split(",")[1:]
        for line in lines[2:]:
            assert line.split(",")[1:] == first_values

    def test_fixed_seed_metrics_reproducible(self, bars_files, tmp_path):
        # byte-identical apart from the wall-clock seconds column
        train, val = bars_files
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(train, val, a)) == 0
        assert main(train_args(train, val, b)) == 0
        assert drop_seconds((a / "metrics.csv").read_text()) == \
               drop_seconds((b / "metrics.csv").read_text())

    def test_memory_error_on_the_helper_thread_exits_1(self, bars_files, tmp_path, capsys,
                                                       monkeypatch):
        open_overlap(monkeypatch)
        backward = Mlp.backward

        def failing(net, upstream):
            if net.head == HEAD_SOFTMAX:
                raise MemoryError("encoder backward")
            backward(net, upstream)

        monkeypatch.setattr(Mlp, "backward", failing)
        train, val = bars_files
        assert main(train_args(train, val, tmp_path / "run")) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: encoder backward"]

    @pytest.mark.parametrize("gate", ["closed", "open"])
    def test_diverging_run_exits_1_with_one_line_under_warnings_as_errors(
            self, tmp_path, capsys, monkeypatch, gate):
        # the overflow that makes the estimate non-finite warns on neither thread
        if gate == "open":
            open_overlap(monkeypatch)
        images = tmp_path / "train.idx3-ubyte"
        write_bars_idx(images, 20, 4, 1)
        argv = train_args(images, images, tmp_path / "run", lr=1e308, batch=5, d=3, k=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite ELBO estimate at epoch 1, batch 1"]

    def test_train_labels_is_an_unknown_option(self, bars_files, tmp_path, capsys):
        # training is unsupervised: no label file is read
        train, val = bars_files
        labels = tmp_path / "labels.idx1-ubyte"
        write_idx(labels, np.zeros(60, dtype=np.uint8))
        out = tmp_path / "run"
        argv = train_args(train, val, out)
        assert main(argv[:1] + ["--train-labels", str(labels)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dvae ")
        assert f"dvae: error: unrecognized arguments: --train-labels {labels}\n" in err
        assert not out.exists()

    def test_image_dimensions_beyond_int64_exit_1_naming_the_file(self, bars_files, tmp_path,
                                                                   capsys):
        train = tmp_path / "huge.idx3-ubyte"
        train.write_bytes(struct.pack(">IIII", 0x803, 2 ** 21, 2 ** 21, 2 ** 22))
        out = tmp_path / "run"
        assert main(train_args(train, bars_files[1], out)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(train) in err[0] and "header promises" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
    def test_images_of_no_pixels_exit_1_naming_the_file(self, bars_files, tmp_path, capsys,
                                                        rows, cols):
        train = tmp_path / "empty-raster.idx3-ubyte"
        write_idx(train, np.zeros((5, rows, cols), dtype=np.uint8))
        out = tmp_path / "run"
        assert main(train_args(train, bars_files[1], out, batch=5)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {train}: images of {rows} x {cols} pixels hold no pixels"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("hidden", 10 ** 15, "out of memory"),
        ("batch", 1000, "batch size 1000 exceeds dataset size 60"),
    ], ids=["out-of-memory", "oversized-batch"])
    def test_failed_train_removes_the_out_directory_it_created(
            self, bars_files, tmp_path, capsys, flag, value, message):
        train, val = bars_files
        out = tmp_path / "run"
        assert main(train_args(train, val, out, **{flag: value})) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

        out.mkdir()  # a directory that was there before the run stays
        assert main(train_args(train, val, out, **{flag: value})) == 1
        assert out.is_dir()

    def test_non_finite_lr_exits_1_without_output(self, bars_files, tmp_path, capsys):
        train, val = bars_files
        for lr in ("nan", "inf"):
            out = tmp_path / lr
            assert main(train_args(train, val, out, lr=lr)) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and "learning_rate" in err
            assert not (out / "metrics.csv").exists()


class TestEvalCommand:
    def test_prints_breakdown_matching_evaluate(self, bars_files, tmp_path, capsys):
        train, val = bars_files
        out = tmp_path / "run"
        main(train_args(train, val, out))
        assert main(["eval", "--model", str(out / "model.ckpt"),
                     "--images", str(val), "--seed", "7"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        ckpt = load_checkpoint(out / "model.ckpt")
        expected = evaluate(ckpt.model, load_binarized(val), Rng(7))
        assert line == (f"elbo={expected.total:.6f} entropy={expected.entropy_term:.6f} "
                        f"prior={expected.prior_term:.6f} recon={expected.recon_term:.6f}")

    def test_memory_error_in_the_helpers_half_exits_1(self, bars_files, tmp_path, capsys,
                                                      monkeypatch):
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        open_overlap(monkeypatch)
        forward = Mlp.forward

        def failing(net, x):
            if net.grads is None:  # the forward-only view of the helper's half
                raise MemoryError("view forward")
            return forward(net, x)

        monkeypatch.setattr(Mlp, "forward", failing)
        assert main(["eval", "--model", str(ckpt_path), "--images", str(bars_files[1])]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: view forward"]

    def test_pixel_count_mismatch_exits_1(self, tmp_path, capsys):
        images = tmp_path / "img.idx3-ubyte"
        write_bars_idx(images, 2, 5, 203)  # p = 25
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        assert main(["eval", "--model", str(ckpt_path), "--images", str(images)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: model expects 16 pixels, images have 25"]

    def test_empty_image_file_exits_1(self, tmp_path, capsys):
        images = tmp_path / "empty.idx3-ubyte"
        write_idx(images, np.zeros((0, 4, 4), dtype=np.uint8))
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        assert main(["eval", "--model", str(ckpt_path), "--images", str(images)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(images) in err[0] and "no images" in err[0]


    def test_images_of_no_pixels_exit_1_naming_the_file(self, tmp_path, capsys):
        images = tmp_path / "empty-raster.idx3-ubyte"
        write_idx(images, np.zeros((5, 0, 0), dtype=np.uint8))
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        assert main(["eval", "--model", str(ckpt_path), "--images", str(images)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {images}: images of 0 x 0 pixels hold no pixels"]


class TestReconstructCommand:
    def test_zero_init_model_renders_mid_gray(self, tmp_path):
        images = tmp_path / "img.idx3-ubyte"
        write_bars_idx(images, 5, 4, 200)
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        out = tmp_path / "recs"
        assert main(["reconstruct", "--model", str(ckpt_path), "--images", str(images),
                     "--n", "3", "--seed", "1", "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 6  # input/recon pair per example
        recon = (out / "recon_000.pgm").read_bytes()
        header = b"P5\n4 4\n255\n"
        assert recon.startswith(header)
        assert set(recon[len(header):]) == {128}  # round-half-even of 127.5

    def test_pgm_header_for_28x28(self, tmp_path):
        images = tmp_path / "img.idx3-ubyte"
        rng = Rng(4)
        raw = np.array([[[rng.randint(256) for _ in range(28)] for _ in range(28)]],
                       dtype=np.uint8)
        write_idx(images, raw)
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=784, d=2, k=2, hidden=2), ckpt_path)
        out = tmp_path / "recs"
        assert main(["reconstruct", "--model", str(ckpt_path), "--images", str(images),
                     "--n", "1", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "input_000.pgm").read_bytes().startswith(b"P5\n28 28\n255\n")

    def test_pixel_count_mismatch_exits_1(self, tmp_path):
        images = tmp_path / "img.idx3-ubyte"
        write_bars_idx(images, 2, 3, 201)  # p = 9
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        assert main(["reconstruct", "--model", str(ckpt_path), "--images", str(images),
                     "--n", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("n", ["6", "-1"])
    def test_bad_n_exits_1_before_writing(self, tmp_path, capsys, n):
        images = tmp_path / "img.idx3-ubyte"
        write_bars_idx(images, 5, 4, 202)
        ckpt_path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), ckpt_path)
        out = tmp_path / "recs"
        assert main(["reconstruct", "--model", str(ckpt_path), "--images", str(images),
                     "--n", n, "--seed", "1", "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestMalformedCheckpoint:
    # zero_init_model(p=16, d=2, k=4) with 4 hidden units; each edit keeps
    # the payload's byte count equal to what the edited manifest promises
    @pytest.mark.parametrize("old,new,extra,message", [
        (b"d=2\n", b"d=\xff\n", 0, "header is not UTF-8"),
        (b"enc.0.b shape=4\n", b"enc.0.b shape=four\n", 0, "malformed shape 'four'"),
        (b"enc.0.w shape=4,16\n", b"enc.0.w shape=64\n", 0, "(64,), not 2-D"),
        (b"enc.0.w shape=4,16\n", b"enc.0.w shape=2,2,16\n", 0, "(2, 2, 16), not 2-D"),
        (b"enc.0.w shape=4,16\n", b"enc.0.w shape=4,17\n", 4,
         "encoder input 17 != decoder output 16"),
        (b"p=16\n", b"p=99\n", 0, "header p=99 != decoder output 16"),
        (b"epoch=0\n", b"epoch=zero\n", 0, "'zero'"),
    ], ids=["non-utf8", "non-integer-shape", "1-d-weight", "3-d-weight", "widths-differ",
            "pixel-count-differs", "non-integer-epoch"])
    def test_is_corrupt_and_exits_1_naming_the_file(self, bars_files, tmp_path, capsys,
                                                    old, new, extra, message):
        path = tmp_path / "zero.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        header = blob[16:16 + header_len]
        assert old in header
        header = header.replace(old, new, 1)
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + bytes(8 * extra) + blob[16 + header_len:])
        with pytest.raises(CheckpointCorruptError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

        out = tmp_path / "recs"
        assert main(["reconstruct", "--model", str(path), "--images", str(bars_files[1]),
                     "--n", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {err.value}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("net,index,name", [("encoder", 5, "enc.0.w"),
                                                ("decoder", -1, "dec.1.b")], ids=["enc", "dec"])
    def test_non_finite_tensor_is_corrupt_and_eval_exits_1(self, bars_files, tmp_path, capsys,
                                                            value, net, index, name):
        model = build_model(TrainConfig(d_latents=2, k_categories=3, hidden_width=8), 16)
        getattr(model, net).params[index] = value
        path = tmp_path / "broken.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointCorruptError,
                           match=f"tensor {name} holds a non-finite value"):
            load_checkpoint(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--model", str(path), "--images", str(bars_files[1])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {path}: tensor {name} holds a non-finite value"]

    def test_tensor_with_no_place_in_the_model_eval_exits_1(self, bars_files, tmp_path, capsys):
        path = tmp_path / "extra.ckpt"
        save_checkpoint(build_model(TrainConfig(d_latents=2, k_categories=3, hidden_width=8), 16),
                        path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        header = blob[16:16 + header_len] + b"tensor=dec.7.b shape=3\ntensor=enc.0.bias shape=2\n"
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + header_len:] + bytes(40))
        assert main(["eval", "--model", str(path), "--images", str(bars_files[1])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {path}: tensor dec.7.b has no place in the model"]

    @pytest.mark.parametrize("line,message", [
        (b"epoch=9\n", "header key epoch is listed twice"),
        (b"noequals\n", "header line 'noequals' has no '='"),
    ], ids=["repeated-key", "no-equals"])
    def test_malformed_header_line_eval_exits_1(self, bars_files, tmp_path, capsys,
                                                line, message):
        path = tmp_path / "edited.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), path, epoch=3)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[12:16])
        header = blob[16:16 + header_len] + line
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + header_len:])
        assert main(["eval", "--model", str(path), "--images", str(bars_files[1])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {path}: {message}"]


class TestSampleCommand:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(zero_init_model(p=16, d=2, k=4), path)
        return path

    def test_n_zero_writes_nothing(self, ckpt, tmp_path):
        out = tmp_path / "s"
        assert main(["sample", "--model", str(ckpt), "--n", "0", "--out", str(out)]) == 0
        assert list(out.iterdir()) == []

    def test_negative_n_exits_1_before_writing(self, ckpt, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sample", "--model", str(ckpt), "--n", "-1", "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    def test_out_of_memory_request_exits_1_without_traceback(self, ckpt, tmp_path, capsys):
        # 10^17 samples of D=2 uniforms would take 1.6e18 bytes, far beyond a
        # 128 TiB address space, so the allocation fails before any is made
        out = tmp_path / "s"
        code = main(["sample", "--model", str(ckpt), "--n", str(10 ** 17), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: out of memory") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_fixed_seed_identical_images(self, ckpt, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sample", "--model", str(ckpt), "--n", "4", "--seed", "9",
                         "--out", str(out)]) == 0
        for name in ("sample_000.pgm", "sample_003.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dump_indices_are_valid_categories(self, ckpt, tmp_path, capsys):
        # 150 samples span more than one forward chunk
        assert main(["sample", "--model", str(ckpt), "--n", "150", "--seed", "3",
                     "--dump-indices", "--out", str(tmp_path / "s")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("sample")]
        assert len(lines) == 150
        assert len(list((tmp_path / "s").iterdir())) == 150
        rng = Rng(3)  # sample i takes the stream's draws 2i and 2i+1
        for i, line in enumerate(lines):
            indices = [int(tok) for tok in line.split(":")[1].split()]
            assert line.startswith(f"sample {i}:")
            assert indices == [min(int(rng.uniform() * 4), 3) for _ in range(2)]


class TestVerifyCommand:
    @pytest.mark.parametrize("seed", sorted(VERIFY_ALL_GOLDEN))
    def test_all_suites_print_the_recorded_text(self, capsys, seed):
        code, text = VERIFY_ALL_GOLDEN[seed]
        assert main(["verify", "--suite", "all", "--seed", str(seed)]) == code
        assert capsys.readouterr().out == text

    def test_grads_suite_passes(self, capsys):
        assert main(["verify", "--suite", "grads", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS decoder-grad-vs-finite-diff" in out
        assert "PASS encoder-grad-vs-finite-diff" in out
        assert "all checks passed" in out

    def test_bound_suite_passes(self, capsys):
        assert main(["verify", "--suite", "bound", "--seed", "6"]) == 0
        assert "PASS elbo-lower-bound-min-slack" in capsys.readouterr().out

    def test_calls_share_one_parser_and_repeat_their_output(self, capsys):
        parser = build_parser()
        argvs = [["verify", "--suite", "bound", "--seed", "6"], ["verify", "--nonsense"]]
        runs = [(main(argv), capsys.readouterr()) for argv in argvs * 2]
        assert build_parser() is parser
        assert [code for code, _ in runs] == [0, 2, 0, 2]
        assert runs[:2] == runs[2:]
