"""Three-valued verdict domain."""

from __future__ import annotations

import enum


class Verdict(enum.Enum):
    """Monitor output: TRUE and FALSE are final, UNKNOWN is not."""

    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    @property
    def final(self) -> bool:
        return self is not Verdict.UNKNOWN

    def __str__(self) -> str:
        return self.value
