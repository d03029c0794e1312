"""Write one workload's inputs as CSV files.

    python3 bench/gen.py WORKLOAD SEED TINY OUT_DIR

bench/run.py runs this in a child process, so the generator's memory never
counts towards the measured process's peak RSS.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoprec.corpus import SyntheticConfig, generate_synthetic, save_ratings, save_transactions  # noqa: E402

from workloads import WORKLOADS, synthetic_fields  # noqa: E402

if __name__ == "__main__":
    name, seed, tiny, out = sys.argv[1:]
    dataset = generate_synthetic(SyntheticConfig(**synthetic_fields(WORKLOADS[name], int(seed), tiny == "1")))
    save_transactions(dataset, Path(out) / "transactions.csv")
    save_ratings(dataset, Path(out) / "ratings.csv")
