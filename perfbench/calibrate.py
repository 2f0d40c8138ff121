"""A fixed amount of work that measures how fast the machine runs right now.

The harness runs this as a child around each repetition and rescales the
repetition's time by it.  It uses no goodpants code, so no change to the
program can move it.  Like a goodpants command it pays interpreter start-up
and a numpy import, then batched 2x2 matrix products.  Tight pure-Python
loops were left out: on a shared machine their speed swings two to three
times as much as the program's does, so they would over-correct.
"""

import numpy as np

a = np.random.default_rng(0).random((2000, 2, 2))
for _ in range(40):
    a = a @ a[::-1]
    a /= np.abs(a).max()
print("ok" if np.isfinite(a).all() else "bad")
