"""One set-up of a workload in a fresh interpreter, for the setup_s metric.

The clock starts before dvae, and with it numpy, is imported, so the time
covers the import, loading the inputs with data.load_binarized, and then
trainer.build_model (train) or trainer.load_checkpoint (eval). The verify
workload's set-up is the import of dvae.cli alone. Afterwards the speed
kernel runs 7 times. Prints {"setup_s": s, "kernel_s": median kernel time}.

    python3 perfbench/probe.py KIND WORK_DIR CONFIG_JSON
"""

import json
import statistics
import sys
import time
from pathlib import Path


def main(kind: str, work: str, config_json: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dvae import cli, data, trainer  # noqa: F401  (cli: verify's entry point)

    config = json.loads(config_json)
    work_dir = Path(work)
    if kind == "train":
        train_set = data.load_binarized(work_dir / "train-images-idx3-ubyte")
        data.load_binarized(work_dir / "val-images-idx3-ubyte")
        trainer.build_model(trainer.TrainConfig(**config), train_set.p)
    elif kind == "eval":
        data.load_binarized(work_dir / "eval-images-idx3-ubyte")
        trainer.load_checkpoint(work_dir / "eval.ckpt")
    setup_s = time.perf_counter() - start

    import speed
    kernel_s = statistics.median(speed.kernel() for _ in range(7))
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
