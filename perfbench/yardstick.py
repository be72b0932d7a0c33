"""A fixed job the benchmark runs between CLI invocations to gauge machine speed.

    python3 perfbench/yardstick.py

It does not import magflow, so no change to the program changes its cost.
It mixes the kinds of work the workloads do, for about 0.4 s on a 2-vCPU
Xeon virtual machine: interpreter start-up and the numpy import, a
pure-Python loop of complex 2x2 matrix products and scalar bisections,
float-to-text formatting, and numpy array passes over a few MB (random
draws, elementwise math, a histogram).  The benchmark divides each
invocation's time by the yardstick's time next to it (``run.py``).
"""

import cmath
import math

import numpy as np


def matrices(n: int) -> complex:
    a, b, c, d = 1.0 + 0.0j, 0.3j, -0.2 + 0.0j, 1.0 + 0.1j
    z = 0.5j
    for k in range(n):
        t = 1e-3 * (k % 97)
        e, f, g, h = cmath.cos(t), -cmath.sin(t), cmath.sin(t), cmath.cos(t)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        s = abs(a * d - b * c) ** 0.5
        a, b, c, d = a / s, b / s, c / s, d / s
        z = (a * z + b) / (c * z + d) if abs(c * z + d) > 1e-12 else 0.5j
    return z


def bisections(n: int) -> float:
    acc = 0.0
    for k in range(n):
        target = 0.1 + (k % 50) * 0.01
        lo, hi = 0.0, 3.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if math.tanh(mid) * mid < target:
                lo = mid
            else:
                hi = mid
        acc += lo
    return acc


def text(n: int) -> int:
    rows = {}
    for k in range(n):
        x = math.sqrt(k + 0.5)
        rows[k % 1000] = f"{k},{x:.17g},{math.log1p(x):.17g}"
    return sum(len(v) for v in rows.values())


def arrays(n: int) -> float:
    rng = np.random.Generator(np.random.Philox(12345))
    total = 0.0
    for _ in range(4):
        u = rng.random(n)
        r = np.arccosh(1.0 + 4.0 * u)
        counts, _ = np.histogram(r, bins=200, range=(0.0, 3.0))
        total += float(np.sqrt(counts).sum()) + float(np.sort(r)[n // 2])
    return total


def main() -> None:
    matrices(60_000)
    bisections(10_000)
    text(40_000)
    arrays(500_000)


if __name__ == "__main__":
    main()
