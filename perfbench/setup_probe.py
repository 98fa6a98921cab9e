"""Set-up cost probe: import fednb, load a config, materialize its dataset, exit.

Usage: python3 setup_probe.py --config FILE [--set seed=N]
(with the fednb sources on PYTHONPATH; run.py times this as setup_s).
"""

import argparse

from fednb.config import load_config
from fednb.experiment import materialize_dataset

ap = argparse.ArgumentParser()
ap.add_argument("--config", required=True)
ap.add_argument("--set", action="append", default=[])
args = ap.parse_args()
materialize_dataset(load_config(args.config, dict(s.split("=", 1) for s in args.set)))
