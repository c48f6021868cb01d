"""The number test and the message rule that every config class's ``__post_init__`` shares."""

import math
import reprlib
import sys
from typing import Any


# ``reprlib.repr``, except that an int over CPython's limit on the digits it converts to text
# (4300 by default), which ``repr`` refuses with a ``ValueError``, is shown by its bit length.
class _Short(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_short = _Short().repr

# The rules ``not math.isnan(real(value, int))`` and ``real(value, int) >= 1`` enforce: an int
# whose float is finite (a seed), and such an int of at least 1 (a count, or each of a tuple's).
INTEGER = f"be an integer in [{-sys.float_info.max!r}, {sys.float_info.max!r}]"
COUNT = f"be an integer of at least 1, at most {sys.float_info.max!r}"
COUNTS = f"be a non-empty tuple of integers of at least 1, at most {sys.float_info.max!r}"


def real(value: Any, kind: type | tuple = (int, float)) -> float:
    """``float(value)`` when ``value`` is a ``kind`` (never a bool) whose float is finite, else NaN,
    which fails every range test.  Ints are compared, not converted, so a huge one cannot overflow."""
    ok = isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return float(value) if ok else math.nan


def require(ok: bool, name: str, rule: str, value: Any) -> None:
    """Raise ``ValueError("'<name>' must <rule>, got <value>")`` unless ``ok``."""
    if not ok:
        raise ValueError(f"'{name}' must {rule}, got {_short(value)}")
