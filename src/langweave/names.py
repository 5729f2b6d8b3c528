"""Deterministic fresh-name supply.

A substitution gives a copied binder a fresh name only when a substituted
value has that name free (see `terms`); host-built closures take fresh
names too.  The counter is seedable so printed residuals are byte-stable
run to run.

`used` holds only the names the reader reserves.  A minted name is the base
(stripped of trailing digits and underscores) plus `_` and the counter, so
no two minted names are ever equal and they need not be remembered.
"""


class FreshNames:
    def __init__(self, seed=0):
        self.counter = int(seed)
        self.used = set()

    def reserve(self, name):
        self.used.add(name)

    def fresh(self, base="x"):
        base = base.rstrip("0123456789_") or "x"
        while True:
            self.counter += 1
            candidate = f"{base}_{self.counter}"
            if candidate not in self.used:
                return candidate
