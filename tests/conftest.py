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


# the sizes at which the built-ins' windows are checked against their rows
BUILTIN_SIZES = [*range(1, 61), 200]


def builtin_rows(kind: str, n: int) -> list[list[int]]:
    """L * M of a built-in from its defining formula, not from its window:
    M[i][i+1] = -1 = -M[i+1][i] for descents, M[i][j] = -1 = -M[j][i] for
    i < j for inversions."""
    if kind == "descents":
        return [[(j == i - 1) - (j == i + 1) for j in range(n)] for i in range(n)]
    return [[(j < i) - (i < j) for j in range(n)] for i in range(n)]
