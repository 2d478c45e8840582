"""Independent checks of dilatory's outputs, in plain numpy.

Nothing here calls into dilatory: expected values come from how each input
was built (its Kraus ranks and junk multiplicities) and from numpy's own
eigen- and singular-value routines.  Every check returns the worst relative
residual it measured, each taken relative to the norm stated next to it, and
raises Rejected when an output is wrong.
"""

from __future__ import annotations

import json

import numpy as np

# worst relative residual an accepted output may show
BOUND = 1e-8
# relative spectral cutoff for ranks, and the gap required around it
RANK_CUT = 1e-9
RANK_GAP = 1e2
SCHEMA = "dilatory/v1"


class Rejected(Exception):
    """The output is wrong."""


def require(condition: bool, message: str):
    if not condition:
        raise Rejected(message)


def rel(diff, scale) -> float:
    """Max-abs norm of ``diff`` relative to ``scale`` (1 when scale is 0)."""
    diff = np.asarray(diff)
    top = float(np.max(np.abs(diff))) if diff.size else 0.0
    return top / scale if scale > 0.0 else top


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def bounded(residuals: dict) -> float:
    """Reject when any residual exceeds BOUND; return the worst one."""
    for name, value in residuals.items():
        require(np.isfinite(value) and value <= BOUND, f"{name} residual {value:.3e}")
    return max(residuals.values(), default=0.0)


def parse_doc(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Rejected(f"output is not JSON: {exc}") from None
    require(isinstance(doc, dict), "output is not a JSON object")
    require(doc.get("schema") == SCHEMA, f"schema {doc.get('schema')!r}")
    require(doc.get("kind") == kind, f"kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def parse_matrix(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = np.asarray(obj["entries"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise Rejected(f"bad matrix object: {exc}") from None
    if rows * cols == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    require(entries.shape == (rows, cols, 2), f"matrix entries have shape {entries.shape}")
    return entries[..., 0] + 1j * entries[..., 1]


# --- algebra bookkeeping --------------------------------------------------


def offsets(blocks) -> list[int]:
    """Basis index of the first matrix unit of each block."""
    out, pos = [], 0
    for n in blocks:
        out.append(pos)
        pos += n * n
    return out


def choi_blocks(blocks, images: np.ndarray) -> list[np.ndarray]:
    """Per-block Choi matrices, entry ((a, s), (b, t)) = phi(E_ab)[s, t]."""
    k = images.shape[1]
    out = []
    for n, off in zip(blocks, offsets(blocks)):
        c = images[off : off + n * n].reshape(n, n, k, k).transpose(0, 2, 1, 3)
        out.append(c.reshape(n * k, n * k))
    return out


def spectral_ranks(choi) -> list[int]:
    """Ranks at a cutoff relative to the largest eigenvalue over all blocks.

    The dilation's Gram matrix is the direct sum of n_j copies of each Choi
    block, so one cutoff for all blocks is the cutoff the dilation uses.
    Inputs are built with a wide spectral gap; an eigenvalue near the cutoff
    means the input is ambiguous and is rejected as a benchmark error.
    """
    spectra = [np.linalg.eigvalsh(0.5 * (c + c.conj().T)) for c in choi]
    top = max(float(w[-1]) for w in spectra)
    cut = RANK_CUT * top
    for w in spectra:
        near = (w > cut / RANK_GAP) & (w < cut * RANK_GAP)
        require(not np.any(near), "input spectrum has no gap at the rank cutoff")
    return [int(np.count_nonzero(w > cut)) for w in spectra]


def algebra_product(blocks, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for n, off in zip(blocks, offsets(blocks)):
        a = x[off : off + n * n].reshape(n, n)
        b = y[off : off + n * n].reshape(n, n)
        out[off : off + n * n] = (a @ b).reshape(-1)
    return out


def algebra_star(blocks, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for n, off in zip(blocks, offsets(blocks)):
        out[off : off + n * n] = x[off : off + n * n].reshape(n, n).conj().T.reshape(-1)
    return out


def algebra_unit(blocks) -> np.ndarray:
    return np.concatenate([np.eye(n, dtype=np.complex128).reshape(-1) for n in blocks])


def star_hom_residual(blocks, images: np.ndarray) -> float:
    """Worst relative defect of a representation, on random elements.

    Multiplicativity and the star condition are polynomial identities in the
    coefficients, so random complex x, y expose any defect with probability
    one.  Frobenius norms: |pi(x)pi(y) - pi(xy)| / (|pi(x)| |pi(y)|),
    |pi(x*) - pi(x)*| / |pi(x)|, and |pi(1) - 1| / |1|.
    """
    rng = np.random.default_rng(20181807)
    dim, h, _ = images.shape

    def pi(coeffs):
        return np.tensordot(coeffs, images, axes=1)

    worst = np.linalg.norm(pi(algebra_unit(blocks)) - np.eye(h)) / np.sqrt(h)
    for _ in range(2):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        px, py = pi(x), pi(y)
        scale = np.linalg.norm(px) * np.linalg.norm(py)
        worst = max(worst, np.linalg.norm(px @ py - pi(algebra_product(blocks, x, y))) / scale)
        worst = max(
            worst,
            np.linalg.norm(pi(algebra_star(blocks, x)) - px.conj().T) / np.linalg.norm(px),
        )
    return float(worst)


def normal_form_images(blocks, mults) -> np.ndarray:
    """Images of the matrix units under a -> (+)_j a_j (x) 1_{c_j}."""
    h = sum(n * c for n, c in zip(blocks, mults))
    dim = sum(n * n for n in blocks)
    out = np.zeros((dim, h, h), dtype=np.complex128)
    pos = 0
    for n, c, off in zip(blocks, mults, offsets(blocks)):
        for a in range(n):
            for b in range(n):
                e = np.zeros((n, n))
                e[a, b] = 1.0
                out[off + a * n + b, pos : pos + n * c, pos : pos + n * c] = np.kron(
                    e, np.eye(c)
                )
        pos += n * c
    return out


# --- workload checks -------------------------------------------------------


def check_dilation(blocks, k: int, images: np.ndarray, text: str) -> float:
    """A dilation certificate of the map with the given basis images.

    d = sum_j n_j rank(C_j); the restriction V* pi(b) V = phi(b) relative to
    max-abs |phi|; pi a unital *-representation (see star_hom_residual);
    Q* Q = G relative to max-abs |G|, with G = (+)_j 1_{n_j} (x) C_j; and
    pi(A) V spanning the carrier (minimality).
    """
    doc = parse_doc(text, "dilation_certificate")
    choi = choi_blocks(blocks, images)
    d = sum(n * r for n, r in zip(blocks, spectral_ranks(choi)))
    rep = doc.get("rep", {})
    require(doc.get("dimension") == d and rep.get("h") == d, f"dimension {doc.get('dimension')} != {d}")
    require(rep.get("k") == k, "anchor has the wrong width")
    require(list(rep.get("domain", {}).get("blocks", [])) == list(blocks), "wrong domain")
    dim = len(images)
    pis = rep.get("pi_images", [])
    require(len(pis) == dim, "wrong number of pi images")
    p = np.stack([parse_matrix(m) for m in pis])
    v = parse_matrix(rep.get("V"))
    q = parse_matrix(doc.get("Q"))
    require(p.shape == (dim, d, d) and v.shape == (d, k), "rep has the wrong shape")
    require(q.shape == (d, dim * k), f"Q has shape {q.shape}")

    gram = np.zeros((dim * k, dim * k), dtype=np.complex128)
    pos = 0
    for n, c in zip(blocks, choi):
        gram[pos : pos + n * n * k, pos : pos + n * n * k] = np.kron(np.eye(n), c)
        pos += n * n * k
    eigs = np.asarray(doc.get("gram_eigenvalues", []), dtype=np.float64)
    require(eigs.shape == (dim * k,), "Gram spectrum has the wrong length")
    require(int(np.count_nonzero(eigs > RANK_CUT * eigs.max())) == d, "Gram spectrum rank != d")

    cols = np.einsum("aij,jk->iak", p, v).reshape(d, dim * k)
    sing = np.linalg.svd(cols, compute_uv=False)
    require(int(np.count_nonzero(sing > RANK_CUT * sing[0])) == d, "dilation is not minimal")

    restriction = np.einsum("ji,ajk,kl->ail", v.conj(), p, v) - images
    return bounded(
        {
            "restriction": rel(restriction, max_abs(images)),
            "star_hom": star_hom_residual(blocks, p),
            "gram": rel(q.conj().T @ q - gram, max_abs(gram)),
        }
    )


def check_not_cp(blocks, images: np.ndarray, text: str) -> float:
    """A not_cp_report: one Choi minimum eigenvalue per block, relative to
    the largest |eigenvalue| of that block, with at least one negative."""
    doc = parse_doc(text, "not_cp_report")
    reported = np.asarray(doc.get("min_eigenvalues", []), dtype=np.float64)
    choi = choi_blocks(blocks, images)
    require(reported.shape == (len(choi),), "one minimum eigenvalue per block expected")
    errors = {}
    for j, c in enumerate(choi):
        w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
        errors[f"min_eig_{j}"] = abs(reported[j] - w[0]) / max(abs(w[0]), abs(w[-1]))
    require(reported.min() < 0.0, "report shows no negative eigenvalue")
    return bounded(errors)


def check_purification(want: dict, text: str) -> float:
    """U between two dilations of one map.

    U pi1(b) = pi2(b) U relative to the largest max-abs entry of either side,
    U V1 = V2 relative to max-abs |V2|, the label's (co-)isometry identities
    relative to |1| = 1, and the singular values of U: exactly
    sum_j n_j min(c1_j, c2_j) of them equal to one, the rest zero.
    """
    doc = parse_doc(text, "purification")
    label = want["label"]
    require(doc.get("label") == label, f"label {doc.get('label')!r} != {label!r}")
    u = parse_matrix(doc.get("U"))
    p1, v1, p2, v2 = want["p1"], want["v1"], want["p2"], want["v2"]
    require(u.shape == (v2.shape[0], v1.shape[0]), f"U has shape {u.shape}")
    left = np.einsum("ij,ajk->aik", u, p1)
    right = np.einsum("aij,jk->aik", p2, u)
    res = {
        "intertwine": rel(left - right, max(max_abs(left), max_abs(right))),
        "anchor": rel(u @ v1 - v2, max_abs(v2)),
    }
    iso = rel(u.conj().T @ u - np.eye(u.shape[1]), 1.0)
    coiso = rel(u @ u.conj().T - np.eye(u.shape[0]), 1.0)
    if label in ("unitary", "isometry"):
        res["isometry"] = iso
    if label in ("unitary", "co-isometry"):
        res["coisometry"] = coiso
    sing = np.linalg.svd(u, compute_uv=False)
    rank = sum(n * min(a, b) for n, a, b in zip(want["blocks"], want["c1"], want["c2"]))
    ones = sing[:rank]
    res["singular_values"] = rel(np.concatenate([ones - 1.0, sing[rank:]]), 1.0)
    return bounded(res)


def check_laws(seed: int, draws: int, text: str) -> float:
    """A passing law-suite report.

    The suite's objects live inside the program, so the residuals are the
    ones it reports, absolute on unit-scale data.  The oracle checks the
    claims: every law passed below eps_eq, every negative control failed by
    at least 1e-3, and seed and draws are echoed.
    """
    doc = parse_doc(text, "law_suite")
    require(doc.get("seed") == seed and doc.get("draws") == draws, "seed or draws not echoed")
    require(doc.get("ok") is True and not doc.get("warnings"), "suite did not pass cleanly")
    names = [r.get("name") for r in doc.get("reports", [])]
    require(names == LAW_NAMES, f"law reports {names}")
    eps_eq = float(doc.get("tolerance", {}).get("eps_eq", 0.0))
    residuals = {}
    for r in doc["reports"]:
        value = float(r.get("max_residual", np.inf))
        require(r.get("passed") is True and value <= eps_eq, f"law {r['name']} failed")
        residuals[r["name"]] = value
    controls = doc.get("negative_controls", [])
    require(len(controls) == len(CONTROL_NAMES), "negative controls missing")
    for c in controls:
        require(
            c.get("name") in CONTROL_NAMES
            and c.get("failed_as_required") is True
            and float(c.get("max_residual", 0.0)) >= 1e-3,
            f"negative control {c.get('name')} did not fail",
        )
    return bounded(residuals)


LAW_NAMES = [
    "zigzag",
    "naturality_m",
    "modification",
    "oplax",
    "dagger",
    "objectwise_adjunction",
    "counterexamples",
    "partial_isometries",
]
CONTROL_NAMES = {
    "control_sabotaged_mediating",
    "control_non_morphism_naturality",
    "control_scrambled_quotient",
    "control_perturbed_counit",
    "control_padding_not_hom",
}


def check_audit(want: dict, result) -> float:
    """validate_rep -> is_minimal -> commutant -> normal_form_general_rep.

    The gate passes; is_minimal is true exactly when no junk was added;
    the commutant has sum_j c_j^2 Hilbert-Schmidt-orthonormal elements
    (Gram defect relative to |1| = 1) commuting with every pi(b) (max-abs,
    relative to |X|_F |pi(b)|_2 = 1); the normal form has multiplicities c
    and a unitary R with R pi(b) R* equal to the block normal form.
    """
    report_ok, _, minimal, basis, mults, r = result
    p, mults_want = want["p"], tuple(want["mults"])
    h = p.shape[1]
    require(report_ok, "validate_rep rejected a representation")
    require(minimal == want["minimal"], f"is_minimal {minimal}, expected {want['minimal']}")
    m = sum(c * c for c in mults_want)
    require(len(basis) == m, f"commutant has {len(basis)} elements, expected {m}")
    require(tuple(mults) == mults_want, f"multiplicities {mults} != {mults_want}")
    x = np.stack(basis).reshape(m, h * h)
    comm = np.einsum("mij,ajk->maik", np.stack(basis), p) - np.einsum(
        "aij,mjk->maik", p, np.stack(basis)
    )
    nf = r @ p @ r.conj().T
    return bounded(
        {
            "commutant_orthonormal": rel(x.conj() @ x.T - np.eye(m), 1.0),
            "commutant_commutes": rel(comm, 1.0),
            "normal_form_unitary": rel(r @ r.conj().T - np.eye(h), 1.0),
            "normal_form": rel(nf - normal_form_images(want["blocks"], mults_want), 1.0),
        }
    )
