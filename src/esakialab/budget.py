"""The one work budget, ESAKIA_MAX_SWEEP. A layer charges its work before it runs;
a loop of unknown length caps itself at sweep_limit() and charges its total past it."""
import os
from functools import lru_cache


class SweepGuardError(RuntimeError):
    """An exhaustive sweep would exceed the configured evaluation budget."""


def sweep_limit() -> int:
    return _parse_limit(os.environ.get("ESAKIA_MAX_SWEEP", "10000000"))


@lru_cache(maxsize=1)  # int() is half the cost of a read
def _parse_limit(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SweepGuardError(f"ESAKIA_MAX_SWEEP must be an integer, got {raw!r}") from None


def charge(layer: str, expr: str, cost: int, unit: str, limit: float | None = None) -> None:
    """Refuse ``cost`` units of work (``expr``) past the budget, or past ``limit``
    where a caller caps itself lower; forced calls skip it."""
    if limit is None:
        limit = sweep_limit()
    if cost > limit:
        raise SweepGuardError(
            f"{layer}: {expr} = {cost} {unit}, more than the budget of {limit} (ESAKIA_MAX_SWEEP)"
        )
