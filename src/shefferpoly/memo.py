"""The package's one memo store.

Every value the engine derives once and shares lives in ``_STORE``:
resolved pairs, Sheffer matrices, phi_k lists, family members, and the
image dict of every weighted-shift structure and of every operator series
over one.  ``clear()`` frees them; an operator built before it keeps the
images it holds, and one built after it starts a fresh dict.
"""

_STORE: dict = {}


def memo(key, make):
    """The value stored under key, computed by make() on first use; callers
    that miss at once all get the value stored first."""
    got = _STORE.get(key)
    if got is None:
        got = _STORE.setdefault(key, make())
    return got


def clear() -> None:
    """Drop every memoized value."""
    _STORE.clear()
