"""Record the SHA-256 of the untampered certificates of the certify
stream, in stream order, for a range of seeds.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

The certify workload compares its first pass against these digests, so
certificate bytes stay identical to the commit they were recorded at.
Re-record only when a change is meant to alter certificate bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from timed import DIGESTS_FILE, round_trip  # noqa: E402


def stream_digest(seed: int, path: Path) -> str:
    digest = hashlib.sha256()
    for op in inputs.certify_stream(seed):
        if not round_trip(op, path, digest)[0]:
            raise SystemExit(f"seed {seed}: a certificate failed its check")
    return digest.hexdigest()


def main() -> None:
    first, last = (int(a) for a in sys.argv[1:3])
    path = HERE / "out" / "cert.json"
    path.parent.mkdir(exist_ok=True)
    digests = {str(seed): stream_digest(seed, path) for seed in range(first, last + 1)}
    path.unlink()
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"about": "sha256 of the untampered certificates of the certify "
                            "stream, in stream order, by seed",
                   "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
