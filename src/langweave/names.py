"""Deterministic fresh-name supply.

Every binder a substitution copies gets a fresh name, which keeps the whole
term tree capture-free without scope bookkeeping.  The counter is seedable
so printed residuals are byte-stable run to run.

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
