"""The output check: every answer against ``expected/``, fingerprints across paths.

An operation fails when it errors, when its answer (n, m, feasibility, the
requested ψ values, advice bits) differs from the committed reference, or
when its graph's fingerprint differs from the one an earlier path of the
same run returned for the same graph (cold vs warm, spec vs adjacency,
single vs batch).  Failures are counted, never raised: a run always ends
with a verdict.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def advice_digest(bits: str) -> str:
    """What ``expected/`` keeps of an advice bit string: length and digest."""
    return f"{len(bits)}:{hashlib.blake2b(bits.encode('ascii'), digest_size=16).hexdigest()}"


def load_expected(workload: str) -> Dict[str, dict]:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


class OutputCheck:
    def __init__(self, expected: Dict[str, dict]) -> None:
        self._expected = expected
        self._fingerprints: Dict[str, str] = {}
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.fingerprint_mismatches = 0
        self.failed = 0

    def record(
        self,
        item: dict,
        answer: Optional[dict],
        *,
        advice: bool = False,
    ) -> bool:
        """Check one operation's answer; returns whether it passed.

        ``answer`` is ``None`` for an operation that errored, else a dict
        with ``n``, ``m``, ``feasible``, ``indices`` and optionally
        ``fingerprint`` and ``advice`` (the bit string).
        """
        self.attempted += 1
        ok = True
        if answer is None:
            self.errors += 1
            ok = False
        else:
            expected = self._expected[item["id"]]
            got = {
                "n": answer["n"],
                "m": answer["m"],
                "feasible": answer["feasible"],
                "indices": {code: answer["indices"].get(code) for code in item["tasks"]},
            }
            want = {key: expected[key] for key in ("n", "m", "feasible")}
            want["indices"] = {code: expected["indices"].get(code) for code in item["tasks"]}
            if advice:
                got["advice"] = advice_digest(answer.get("advice") or "")
                want["advice"] = expected["advice"]
            if got != want:
                self.wrong += 1
                ok = False
            fingerprint = answer.get("fingerprint")
            if fingerprint is not None:
                first = self._fingerprints.setdefault(item["id"], fingerprint)
                if first != fingerprint:
                    self.fingerprint_mismatches += 1
                    ok = False
        if not ok:
            self.failed += 1
        return ok

    @property
    def correct(self) -> bool:
        """No operation errored and every answer matched the reference.

        Fingerprint disagreements between paths count in ``failed`` (and in
        the ``failed_share`` the run prints) but are reported apart: they
        are a known inconsistency of the program, not a wrong answer.
        """
        return self.errors == 0 and self.wrong == 0
