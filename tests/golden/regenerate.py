"""Regenerate (or check) the golden corpus, ``tests/golden/corpus.json``.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py            # rewrite
    PYTHONPATH=src python tests/golden/regenerate.py --check    # compare
    PYTHONPATH=src python tests/golden/regenerate.py --out F    # elsewhere

``--check`` runs every case and lists the ones whose digests moved
(exit status 1 if any did) without writing anything.  A change that
moves a digest changes simulator behaviour: regenerate the corpus in
the same change and say why in CHANGES.md.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.golden.cases import (CASE_NAMES, CORPUS_PATH,  # noqa: E402
                                load_corpus, run_case, write_corpus)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=CORPUS_PATH,
                        help="where to write the corpus")
    parser.add_argument("--check", action="store_true",
                        help="compare against the corpus, write nothing")
    args = parser.parse_args()
    entries = {}
    for index, name in enumerate(CASE_NAMES, 1):
        entries[name] = run_case(name)[0]
        print(f"[{index}/{len(CASE_NAMES)}] {name}", file=sys.stderr)
    if not args.check:
        write_corpus(entries, args.out)
        print(f"wrote {len(entries)} cases to {args.out}")
        return 0
    pinned = load_corpus(args.out)
    moved = sorted(name for name in set(pinned) | set(entries)
                   if pinned.get(name) != entries.get(name))
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(entries) - len(moved)}/{len(entries)} cases unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
