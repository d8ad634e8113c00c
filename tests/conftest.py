import numpy as np

from steinperm import AntisymmetricMatrix, random_antisymmetric_matrix


def random_matrices(n: int, count: int = 5, seed: int = 20260819) -> list[AntisymmetricMatrix]:
    """Seeded random integer antisymmetric matrices, stable across runs."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n])))
    return [random_antisymmetric_matrix(n, rng) for _ in range(count)]


def d_descent_matrix(n: int, d: int) -> AntisymmetricMatrix:
    """The d-descent matrix, M[u][u+k] = -1 for 1 <= k <= d: descents at
    d = 1, inversions at d = n - 1."""
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, min(u + d, n - 1) + 1):
            rows[u][v], rows[v][u] = -1, 1
    return AntisymmetricMatrix.from_rows(rows)
