"""Set-up probe: the work every CLI run does before its experiment starts.

Run as a fresh process: imports nsrw, parses and validates the config, and
builds and randomizes the data field, then exits. The parent times it from
launch to exit.

    python3 perfbench/probe.py CONFIG.json SEED
"""

import sys

from nsrw.config import parse_config, validate_config
from nsrw.experiments import build_data_field
from nsrw.randomization import randomize, sample_coefficients
from nsrw.spectral import ring_partition


def main(config_path: str, seed: str) -> int:
    cfg = parse_config(config_path)
    cfg.master_seed = int(seed)
    validate_config(cfg)
    grid, f = build_data_field(cfg)
    part = ring_partition(grid)
    randomize(f, sample_coefficients(cfg.random_model(), part.max_ring, 0), part)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
