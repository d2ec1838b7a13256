"""The package's one memo store.

Every value the engine derives once and shares lives in ``_STORE``, in
five kinds:

* the resolved record of each (pair, order), which computes its raising
  factors (-g'/g, 1/f') and its Sheffer matrix on first read;
* the phi_k list of each (Phi name, order);
* the members of the named families, one per (Phi name, pair, n);
* the two S-kind exponential route operators of each (r, order);
* the image dict of every weighted-shift structure and of every operator
  series over one.

Every key is data (names, parameters, orders, classes, variables, series
coefficients), never a function, and only an image key holds a polynomial
(one of an operator's structure).  So the store holds what the code of the
moment computed: whoever replaces engine code to plant a fault swaps in an
empty ``_STORE`` for as long as the fault stands.  ``clear()`` frees them; an operator built before it keeps the
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
