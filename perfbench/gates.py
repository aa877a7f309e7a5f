"""Correctness gates, as pure functions over a workload's outputs.

Each gate returns a list of failure messages (empty when it holds).
The workloads run them outside the timed region; every message counts
as one failed operation.  ``tests/test_perfbench.py`` flips one bit or
byte of a passing input and requires the gate to fail.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

Histories = Mapping[int, Mapping[int, Tuple[int, ...]]]

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_digest(histories: Histories, counters: Mapping[str, int]) -> str:
    """sha256 of the health-vector histories plus the counter snapshot."""
    canonical = {
        "health": {str(node): {str(d): list(hv)
                               for d, hv in sorted(rounds.items())}
                   for node, rounds in sorted(histories.items())},
        "counters": dict(sorted(counters.items())),
    }
    return sha256_text(json.dumps(canonical, sort_keys=True,
                                  separators=(",", ":")))


def consistency_failures(histories: Histories) -> List[str]:
    """Theorem 1: every node computed the same vector for each round."""
    reference: Dict[int, Tuple[int, ...]] = {}
    failures = []
    for node, rounds in sorted(histories.items()):
        for d_round, hv in sorted(rounds.items()):
            if reference.setdefault(d_round, tuple(hv)) != tuple(hv):
                failures.append(f"node {node} disagrees on round {d_round}")
    return failures


def oracle_failures(event: Histories, vectorized: Histories,
                    counters: Mapping[str, int],
                    reference: Optional[str]) -> List[str]:
    """The oracle-ge64 gate over one metered, fully traced run."""
    failures = consistency_failures(event)
    if not any(event.values()):
        failures.append("no health vectors recorded")
    if dict(event) != dict(vectorized):
        failures.append("vectorized backend health vectors differ")
    if reference is not None and oracle_digest(event, counters) != reference:
        failures.append("oracle digest differs from the reference")
    return failures


def document_failures(cold: str, warm: str,
                      reference: Optional[str]) -> List[str]:
    """Warm document bytes equal cold ones, and match the reference."""
    failures = []
    if warm != cold:
        failures.append("warm document differs from cold")
    if reference is not None and sha256_text(cold) != reference:
        failures.append("document digest differs from the reference")
    return failures
