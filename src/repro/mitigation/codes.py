"""Protection-code models for the counterfactual ECC what-if engine.

Astra runs SEC-DED to save cost and power (section 2.2); section 3.2
notes the consequence: multi-bit device faults surface as detected
uncorrectable errors that Chipkill-class codes would have corrected.
This module is the code-model layer under
:mod:`repro.mitigation.whatif`: every protection scenario the engine
replays maps a per-read-event error footprint -- ``n_bits`` distinct
corrupted bits in the 72-bit word, ``n_symbols`` distinct x8 devices
those bits span -- to one of three outcomes.

Two model families cover the codes the literature argues about:

- :class:`SecDedModel` -- Hsiao (72,64) at pattern level: one bit is
  corrected, every even-weight pattern is detected (the H-matrix has
  odd-weight columns, so even-weight errors can never alias a single
  column), and odd-weight patterns of three or more bits carry odd
  overall parity, alias a single-bit syndrome and *miscorrect into
  silent corruption*.  This is the only model with a silent channel,
  and it is why the what-if tables account silent corruption for
  SEC-DED but not for the erasure codes (DESIGN.md section 13).
- :class:`SymbolCodeModel` -- symbol codes over GF(256) at device
  granularity: the SSC-DSD chipkill code corrects any one symbol, and
  the RS-{36,32} / RS-{72,64} *erasure* models correct up to ``n - k``
  symbols whose locations are known from the fault context (a chip
  that is erroring identifies itself).  Erasure decoding with known
  locations either solves the Vandermonde system or reports failure --
  there is no miscorrection channel, hence ``silent == 0`` for every
  symbol code by construction.

The erasure-capacity claim is not taken on faith: :func:`rs_encode`,
:func:`rs_syndromes` and :func:`rs_erasure_decode` implement the
actual Reed-Solomon algebra over :mod:`repro.machine.gf256` (the same
``alpha^(r*j)`` parity-check rows as :class:`repro.machine.chipkill.
ChipkillSsc`), and the machine tests exercise them against
hand-computed syndrome vectors.

The pattern-level Monte-Carlo study (inject physically motivated error
patterns through the *real* SEC-DED and chipkill codecs, quantifying
the section 2.2 SEC-DED-versus-Chipkill trade-off Astra made) also
lives here, with the text rendering the ablation bench and the
examples print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.gf256 import alpha, gf_mul

#: Replay outcomes (0 is reserved for "avoided by a mitigation policy").
CORRECTED = 1
DUE = 2
SILENT = 3

#: Outcome labels used in reports and schemas.
OUTCOME_LABELS = {CORRECTED: "corrected", DUE: "due", SILENT: "silent"}

#: Bits per DRAM device symbol (x8 parts, one symbol per device).
SYMBOL_BITS = 8


@dataclass(frozen=True)
class CodeModel:
    """One protection code, as seen by the what-if replay.

    ``strength`` is a total order for the monotonicity properties: a
    higher-strength code never corrects fewer events and never leaves
    more events uncorrected on the same replay.
    """

    name: str
    description: str
    strength: int
    #: True when decode failure is always detected (no silent channel).
    silent_free: bool

    def classify(self, n_bits: np.ndarray, n_symbols: np.ndarray) -> np.ndarray:
        """Vectorised outcome for each event footprint (int8 array)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SecDedModel(CodeModel):
    """Hsiao SEC-DED at pattern level: the bit-parity model."""

    def classify(self, n_bits: np.ndarray, n_symbols: np.ndarray) -> np.ndarray:
        nb = np.asarray(n_bits, dtype=np.int64)
        out = np.full(nb.shape, SILENT, dtype=np.int8)
        out[nb % 2 == 0] = DUE
        out[nb <= 1] = CORRECTED
        return out


@dataclass(frozen=True)
class SymbolCodeModel(CodeModel):
    """Symbol code at device granularity: corrects ``<= t`` symbols."""

    #: Correctable symbol count (1 for SSC-DSD, ``n - k`` for erasure).
    symbol_capacity: int = 1

    def classify(self, n_bits: np.ndarray, n_symbols: np.ndarray) -> np.ndarray:
        ns = np.asarray(n_symbols, dtype=np.int64)
        return np.where(ns <= self.symbol_capacity, CORRECTED, DUE).astype(
            np.int8
        )


#: The code vocabulary of the what-if engine, weakest to strongest.
CODES: dict[str, CodeModel] = {
    "secded": SecDedModel(
        name="secded",
        description="Hsiao SEC-DED (72,64) -- what Astra runs",
        strength=0,
        silent_free=False,
    ),
    "chipkill": SymbolCodeModel(
        name="chipkill",
        description="SSC-DSD single-symbol-correct chipkill over GF(256)",
        strength=1,
        silent_free=True,
        symbol_capacity=1,
    ),
    "rs-36-32": SymbolCodeModel(
        name="rs-36-32",
        description="RS(36,32) symbol-erasure model (4 check symbols)",
        strength=2,
        silent_free=True,
        symbol_capacity=4,
    ),
    "rs-72-64": SymbolCodeModel(
        name="rs-72-64",
        description="RS(72,64) symbol-erasure model (8 check symbols)",
        strength=3,
        silent_free=True,
        symbol_capacity=8,
    ),
}

#: Code names ordered weakest to strongest (the monotonicity chain).
STRENGTH_ORDER = tuple(
    sorted(CODES, key=lambda name: CODES[name].strength)
)


def get_code(name: str) -> CodeModel:
    """Look up a code model; raises ``ValueError`` with the vocabulary."""
    try:
        return CODES[name]
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; known codes: {', '.join(CODES)}"
        ) from None


def classify_event(code: str, n_bits: int, n_symbols: int) -> int:
    """Scalar outcome for one event -- the reference-path entry point."""
    return int(get_code(code).classify(np.int64(n_bits), np.int64(n_symbols)))


# ----------------------------------------------------------------------
# Reed-Solomon erasure algebra over GF(256) -- the proof obligation
# behind the RS-{36,32}/{72,64} capacity numbers above.  Same
# construction as repro.machine.chipkill: parity-check rows
# H[r, j] = alpha^(r*j), r = 0 .. n-k-1.
# ----------------------------------------------------------------------
def rs_parity_matrix(n: int, k: int) -> np.ndarray:
    """The (n-k, n) Vandermonde parity-check matrix alpha^(r*j)."""
    if not 0 < k < n <= 255:
        raise ValueError("need 0 < k < n <= 255")
    r = np.arange(n - k, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    return alpha(r * j)


def rs_syndromes(codeword: np.ndarray, n: int, k: int) -> np.ndarray:
    """Syndromes S_r = XOR_j c_j * alpha^(r*j) of a received word."""
    cw = np.asarray(codeword, dtype=np.uint8)
    if cw.shape[-1] != n:
        raise ValueError(f"codeword must have {n} symbols")
    h = rs_parity_matrix(n, k)
    out = np.zeros(cw.shape[:-1] + (n - k,), dtype=np.uint8)
    for r in range(n - k):
        out[..., r] = np.bitwise_xor.reduce(gf_mul(cw, h[r]), axis=-1)
    return out


def rs_encode(data: np.ndarray, n: int, k: int) -> np.ndarray:
    """Append ``n - k`` check symbols so every syndrome is zero."""
    from repro.machine.chipkill import _gf_mat_inv

    data = np.asarray(data, dtype=np.uint8)
    if data.shape[-1] != k:
        raise ValueError(f"data must have {k} symbols")
    h = rs_parity_matrix(n, k)
    n_checks = n - k
    # Partial syndromes over the data positions.
    partial = np.zeros(data.shape[:-1] + (n_checks,), dtype=np.uint8)
    for r in range(n_checks):
        partial[..., r] = np.bitwise_xor.reduce(
            gf_mul(data, h[r, :k]), axis=-1
        )
    inv = _gf_mat_inv(h[:, k:])
    checks = np.zeros(data.shape[:-1] + (n_checks,), dtype=np.uint8)
    for i in range(n_checks):
        acc = np.zeros(data.shape[:-1], dtype=np.uint8)
        for c in range(n_checks):
            acc ^= gf_mul(inv[i, c], partial[..., c])
        checks[..., i] = acc
    return np.concatenate([data, checks], axis=-1)


def rs_erasure_decode(
    codeword: np.ndarray, erasures, n: int, k: int
) -> np.ndarray:
    """Recover a codeword whose symbols at ``erasures`` are corrupt.

    With the erased *locations* known, the error magnitudes solve the
    ``|E| x |E|`` Vandermonde system ``H[:, E] @ e = S`` -- always
    nonsingular for distinct positions, which is exactly the
    ``n - k``-erasure capacity claim of the what-if models.  More
    erasures than check symbols raise ``ValueError`` (a detected,
    never silent, failure).
    """
    from repro.machine.chipkill import _gf_mat_inv

    cw = np.asarray(codeword, dtype=np.uint8).copy()
    if cw.ndim != 1 or cw.shape[0] != n:
        raise ValueError(f"codeword must be a flat array of {n} symbols")
    pos = sorted({int(p) for p in np.asarray(erasures, dtype=np.int64)})
    if any(p < 0 or p >= n for p in pos):
        raise ValueError("erasure position out of range")
    if len(pos) > n - k:
        raise ValueError(
            f"{len(pos)} erasures exceed the {n - k}-symbol capacity of "
            f"RS({n},{k})"
        )
    if not pos:
        return cw
    syn = rs_syndromes(cw, n, k)
    h = rs_parity_matrix(n, k)
    m = h[: len(pos)][:, pos]
    inv = _gf_mat_inv(m)
    for i, p in enumerate(pos):
        e = np.uint8(0)
        for c in range(len(pos)):
            e ^= gf_mul(inv[i, c], syn[c])
        cw[p] ^= e
    # The remaining syndromes must agree -- if they do not, the word
    # held errors outside the declared erasures.
    if np.any(rs_syndromes(cw, n, k) != 0):
        raise ValueError("residual syndrome: errors outside the erasures")
    return cw


# ----------------------------------------------------------------------
# Pattern-level Monte-Carlo study through the *real* codecs, shared
# by the scenario engine and the ablation bench; its RNG draw order is
# part of every published number.
# ----------------------------------------------------------------------

#: The error patterns studied, in escalating severity.
PATTERNS = (
    "single-bit",
    "double-bit same device",
    "double-bit cross device",
    "single device failure",
    "double device failure",
)


@dataclass(frozen=True)
class EccOutcomes:
    """Monte-Carlo outcome tallies for one (scheme, pattern) pair."""

    corrected: int
    detected: int
    miscorrected: int
    undetected: int

    @property
    def trials(self) -> int:
        return self.corrected + self.detected + self.miscorrected + self.undetected

    @property
    def silent_fraction(self) -> float:
        """Fraction of trials ending in silent corruption (the worst)."""
        bad = self.miscorrected + self.undetected
        return bad / self.trials if self.trials else 0.0

    def summary(self) -> str:
        n = max(self.trials, 1)
        return (
            f"corrected {self.corrected / n:6.1%}  "
            f"detected {self.detected / n:6.1%}  "
            f"miscorrected {self.miscorrected / n:6.1%}  "
            f"undetected {self.undetected / n:6.1%}"
        )


def _secded_pattern_bits(pattern: str, n: int, rng) -> list[np.ndarray]:
    """Per-trial lists of codeword bit positions to flip."""
    from repro.machine.dram import CODEWORD_BITS

    n_devices = CODEWORD_BITS // 8  # 9
    if pattern == "single-bit":
        return [rng.integers(0, CODEWORD_BITS, 1) for _ in range(n)]
    if pattern == "double-bit same device":
        out = []
        for _ in range(n):
            dev = rng.integers(0, n_devices)
            bits = dev * 8 + rng.choice(8, 2, replace=False)
            out.append(bits)
        return out
    if pattern == "double-bit cross device":
        out = []
        for _ in range(n):
            devs = rng.choice(n_devices, 2, replace=False)
            out.append(devs * 8 + rng.integers(0, 8, 2))
        return out
    if pattern == "single device failure":
        out = []
        for _ in range(n):
            dev = int(rng.integers(0, n_devices))
            byte = int(rng.integers(1, 256))  # nonzero corruption
            bits = np.flatnonzero([(byte >> b) & 1 for b in range(8)]) + dev * 8
            out.append(bits)
        return out
    if pattern == "double device failure":
        out = []
        for _ in range(n):
            devs = rng.choice(n_devices, 2, replace=False)
            bits = []
            for dev in devs:
                byte = int(rng.integers(1, 256))
                bits.extend(
                    int(dev) * 8 + b for b in range(8) if (byte >> b) & 1
                )
            out.append(np.array(bits))
        return out
    raise ValueError(f"unknown pattern: {pattern!r}")


def evaluate_secded(pattern: str, trials: int = 2000, seed: int = 0) -> EccOutcomes:
    """Inject a pattern through the Hsiao SEC-DED codec."""
    from repro.machine.dram import DATA_BITS, SecDed72

    rng = np.random.default_rng(seed)
    code = SecDed72()
    corrected = detected = miscorrected = undetected = 0
    flips = _secded_pattern_bits(pattern, trials, rng)
    data = rng.integers(0, 2**63, trials, dtype=np.uint64)
    checks = code.encode(data)
    for i in range(trials):
        bad_d, bad_c = data[i], int(checks[i])
        for pos in np.asarray(flips[i], dtype=np.int64):
            if pos < DATA_BITS:
                bad_d = bad_d ^ (np.uint64(1) << np.uint64(pos))
            else:
                bad_c ^= 1 << int(pos - DATA_BITS)
        fixed, status = code.correct(bad_d, np.uint8(bad_c))
        if status == 0:
            # Zero syndrome with flips applied: undetected corruption.
            undetected += 1
        elif status == 2:
            detected += 1
        elif fixed == data[i]:
            corrected += 1
        else:
            miscorrected += 1
    return EccOutcomes(corrected, detected, miscorrected, undetected)


def _chipkill_pattern_symbols(pattern: str, n: int, rng):
    """Per-trial (positions, error_bytes) to XOR into codewords."""
    from repro.machine.chipkill import CODEWORD_SYMBOLS

    if pattern == "single-bit":
        pos = rng.integers(0, CODEWORD_SYMBOLS, (n, 1))
        err = (1 << rng.integers(0, 8, (n, 1))).astype(np.uint8)
        return pos, err
    if pattern == "double-bit same device":
        pos = rng.integers(0, CODEWORD_SYMBOLS, (n, 1))
        err = np.zeros((n, 1), dtype=np.uint8)
        for i in range(n):
            bits = rng.choice(8, 2, replace=False)
            err[i, 0] = (1 << bits[0]) | (1 << bits[1])
        return pos, err
    if pattern == "double-bit cross device":
        pos = np.stack(
            [rng.choice(CODEWORD_SYMBOLS, 2, replace=False) for _ in range(n)]
        )
        err = (1 << rng.integers(0, 8, (n, 2))).astype(np.uint8)
        return pos, err
    if pattern == "single device failure":
        pos = rng.integers(0, CODEWORD_SYMBOLS, (n, 1))
        err = rng.integers(1, 256, (n, 1)).astype(np.uint8)
        return pos, err
    if pattern == "double device failure":
        pos = np.stack(
            [rng.choice(CODEWORD_SYMBOLS, 2, replace=False) for _ in range(n)]
        )
        err = rng.integers(1, 256, (n, 2)).astype(np.uint8)
        return pos, err
    raise ValueError(f"unknown pattern: {pattern!r}")


def evaluate_chipkill(pattern: str, trials: int = 2000, seed: int = 0) -> EccOutcomes:
    """Inject a pattern through the SSC-DSD chipkill codec."""
    from repro.machine.chipkill import DATA_SYMBOLS, ChipkillSsc

    rng = np.random.default_rng(seed)
    code = ChipkillSsc()
    data = rng.integers(0, 256, (trials, DATA_SYMBOLS)).astype(np.uint8)
    clean = code.encode(data)
    bad = clean.copy()
    pos, err = _chipkill_pattern_symbols(pattern, trials, rng)
    rows = np.arange(trials)[:, None]
    bad[rows, pos] ^= err
    fixed, status = code.decode(bad)

    corrected = detected = miscorrected = undetected = 0
    for i in range(trials):
        if status[i] == 0:
            undetected += 1
        elif status[i] == 2:
            detected += 1
        elif np.array_equal(fixed[i], clean[i]):
            corrected += 1
        else:
            miscorrected += 1
    return EccOutcomes(corrected, detected, miscorrected, undetected)


def compare_schemes(trials: int = 2000, seed: int = 0) -> dict:
    """Run every pattern through both codecs.

    Returns ``{pattern: {"secded": EccOutcomes, "chipkill": EccOutcomes}}``.
    """
    out = {}
    for pattern in PATTERNS:
        out[pattern] = {
            "secded": evaluate_secded(pattern, trials, seed),
            "chipkill": evaluate_chipkill(pattern, trials, seed),
        }
    return out


def render_comparison(results: dict) -> str:
    """Text table of :func:`compare_schemes` output."""
    lines = [
        "pattern                         scheme     outcome mix",
        "-" * 78,
    ]
    for pattern, pair in results.items():
        for scheme in ("secded", "chipkill"):
            lines.append(
                f"{pattern:<30} {scheme:<9} {pair[scheme].summary()}"
            )
    return "\n".join(lines)
