"""numpy's binomial draws, replayed from the same Philox words through a table.

Where ``n*p`` is at most 30, ``Generator.binomial(n, p)`` draws by sequential
inversion (the inversion half of numpy's BTPE/inversion split; Kachitvichyanukul
& Schmeiser, CACM 1988): it takes one uniform ``U`` from the bit generator's
``next_double`` and subtracts ``px_0, px_1, ...`` from it until what is left
is at most the next ``px``. So the count is a step function of ``U`` with a
step at each cumulative ``px``. ``BinomialDraw`` tabulates that function over
2**16 bins of ``U`` once. Philox's ``next_double`` is ``(word >> 11) * 2**-53``
of its next 64-bit word, so a uniform's bin is the word's top 16 bits: the draw
reads the words with ``random_raw``, looks each bin's count up and writes it
into the caller's array; a bin that a step crosses is settled by numpy's own
loop on the uniform rebuilt from its word. Draws and stream position equal
``Generator.binomial``'s bit for bit. Outside the inversion regime, and on
numpy's rare restart, numpy draws.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BinomialDraw"]

_BINS = 1 << 16
_UNSURE = -1
# numpy's running ``U -= px`` rounds ~1e-16 per step and takes at most ~86
# steps, so a step lies within 1e-12 of where its cumulative sum puts it.
_MARGIN = 1e-12
_INVERSION_MAX_MEAN = 30.0
_BIN_SHIFT = np.uint64(64 - 16)  # a word's top 16 bits are its uniform's bin
_WORD_SHIFT = 64 - 53  # next_double keeps a word's top 53 bits


class BinomialDraw:
    """``gen.binomial(n, p, out.size)`` for one fixed ``(n, p)``, bit for bit,
    written into ``out`` from a Philox generator's raw words.

    Built once per run from ``n`` and ``p``; shared read-only by threads, each
    drawing into its own ``out``.
    """

    def __init__(self, n: int, p: float) -> None:
        self.n = n
        self.p = p
        self._table = None  # None: every draw is numpy's
        # numpy's regime split, in its own floating-point order; n == 0 and
        # p == 0 draw 0 without a uniform, and NaN reaches numpy's check.
        if n == 0 or p == 0.0:
            return
        if p <= 0.5 and p * n <= _INVERSION_MAX_MEAN:
            self._flip, pi = False, p
        elif p > 0.5 and (1.0 - p) * n <= _INVERSION_MAX_MEAN:
            self._flip, pi = True, 1.0 - p  # numpy draws n - X at 1 - p
        else:
            return
        q = 1.0 - pi
        mean = n * pi
        self._bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
        px = [math.exp(n * math.log(q))]
        for x in range(1, self._bound + 1):
            px.append(((n - x + 1) * pi * px[-1]) / (x * q))
        self._px = px
        # The count of U is the number of cumulative px below it, so bin i
        # counts the steps in bins before i. A bin is unsure where a step lies
        # within _MARGIN of it (far below a bin's width, so the bins holding
        # step - _MARGIN and step + _MARGIN), or past the last step, where
        # numpy restarts.
        steps = np.cumsum(px) * _BINS  # exact scaling: step positions in bins
        ends = np.minimum(steps, _BINS - 1).astype(np.intp) + 1
        table = np.repeat(
            np.arange(self._bound + 2, dtype=np.int8), np.diff(ends, prepend=0, append=_BINS)
        )
        table[table > self._bound] = _UNSURE
        for edge in (steps - _MARGIN * _BINS, steps + _MARGIN * _BINS):
            table[np.clip(edge, 0, _BINS - 1).astype(np.intp)] = _UNSURE
        self._table = table

    def _invert(self, u: float) -> int | None:
        """numpy's inversion loop on one uniform; None where numpy restarts."""
        px = self._px
        x = 0
        while u > px[x]:
            if x == self._bound:
                return None
            u -= px[x]
            x += 1
        return x

    def __call__(self, gen: np.random.Generator, out: np.ndarray) -> None:
        """Write ``gen.binomial(n, p, out.size)`` into the int64 array ``out``."""
        bitgen = gen.bit_generator
        if not isinstance(bitgen, np.random.Philox):  # the stream the replay is checked on
            raise TypeError(f"BinomialDraw replays Philox streams, got {type(bitgen).__name__}")
        if self._table is None:
            out[...] = gen.binomial(self.n, self.p, size=out.size)
            return
        state = bitgen.state
        words = bitgen.random_raw(out.size)
        np.right_shift(words, _BIN_SHIFT, out=out.view(np.uint64))
        looked_up = self._table.take(out)
        np.copyto(out, looked_up)
        unsure = np.flatnonzero(looked_up == _UNSURE)
        for i, word in zip(unsure.tolist(), words[unsure].tolist()):
            x = self._invert((word >> _WORD_SHIFT) * 2.0**-53)  # numpy's next_double
            if x is None:  # numpy takes a second uniform here: let it redraw
                bitgen.state = state
                out[...] = gen.binomial(self.n, self.p, size=out.size)
                return
            out[i] = x
        if self._flip:
            np.subtract(self.n, out, out=out)
