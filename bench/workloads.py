"""The two workloads: their seeded inputs and the check of each output.

A workload is a list of CLI invocations, repeated unchanged in every round
(so that repeats can be compared byte for byte), plus, for
``closed-forms``, sweeps of in-process library queries whose inputs are
drawn afresh for every round from (seed, round).  The program sees only
the generated argv and call arguments.

Inputs are drawn from small vetted pools: every member runs to its end
at exit status 0, and members of one pool cost about the same, so that
the seed moves the inputs but not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

import checks
import oracles

WORKLOADS = ("closed-forms", "probe")

# Roles select the operations behind the per-workload metrics (see README).
OPEN_CASE = "open_case"  # the round's query on the open case N in {2, 3, 4}
ESTIMATE = "estimate"  # a numerical estimate: `quotient` or `minimize`

ALPHAS = tuple(Fraction(i, 8) for i in range(-7, 17))  # -7/8 .. 2
# Weights for queries that integrate by quadrature.  At alpha = -7/8 the
# quadrature route of mode_energies misses the closed form (see CHANGES.md).
QUAD_ALPHAS = ALPHAS[1:]
DEFAULT_BASIS = (4, 8, 16)
SWEEP_SIZE = 100
SWEEP_BLOCKS = 2  # sweeps per round

# Pools of (N, alpha, k) with about equal cost, all passing at exit 0.
PROBE_RADIAL = ((5, 0, 0), (6, 0, 0), (7, 0, 0))
PROBE_WEIGHTED = ((6, Fraction(1, 8), 1), (6, Fraction(1, 4), 0), (7, Fraction(1, 4), 0),
                  (7, Fraction(3, 8), 0), (7, Fraction(3, 8), 1), (6, Fraction(1, 4), 1))


@dataclass(frozen=True)
class CliOp:
    """One `cknlab` invocation and the check of its parsed JSON output."""

    argv: Tuple[str, ...]
    check: Callable[[dict], None]
    roles: FrozenSet[str] = frozenset()

    @property
    def label(self) -> str:
        return "cknlab " + " ".join(self.argv)


@dataclass(frozen=True)
class LibOp:
    """One in-process library query and the check of its return value."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Plan:
    cli_ops: Tuple[CliOp, ...]
    files: Tuple[Tuple[str, str], ...]  # (path relative to the checkout, text)
    library_round: Optional[Callable[[int], List[LibOp]]] = None


def num(x) -> str:
    """A dyadic Fraction as the decimal the CLI parses back exactly."""
    return repr(float(x))


def region(n: int, alphas: Sequence[Fraction] = QUAD_ALPHAS) -> List[Fraction]:
    """Weights with N >= 5 alpha + 5, where the sharp constant is radial."""
    return [a for a in alphas if n >= 5 * a + 5]


def _minimize_op(n: int, alpha, k: int) -> CliOp:
    """`minimize` at the default sizes 4, 8, 16."""
    alpha = Fraction(alpha)
    return CliOp(("minimize", "--n", str(n), "--alpha", num(alpha), "--k", str(k)),
                 lambda doc: checks.check_minimize(doc, n, alpha, k, DEFAULT_BASIS),
                 frozenset({ESTIMATE}))


# -- closed-forms ------------------------------------------------------------


def _dyadic(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
                       Fraction(3, 2), Fraction(2), Fraction(3)))


def _coefficients(rng: random.Random, count: int) -> List[Fraction]:
    return [Fraction(1)] + [Fraction(rng.randint(-8, 8), 8) or Fraction(1, 2)
                            for _ in range(count - 1)]


def _closed_forms(seed: int, workdir: str) -> Plan:
    rng = random.Random(seed)
    ops: List[CliOp] = []

    n = rng.randint(5, 12)
    a = rng.choice(region(n, ALPHAS))
    ops.append(CliOp(("constants", "--n", str(n), "--alpha", num(a)),
                     lambda d, n=n, a=a: checks.check_constants(d, n, a)))
    a1 = rng.choice(ALPHAS)
    ops.append(CliOp(("constants", "--n", "1", "--alpha", num(a1)),
                     lambda d, a=a1: checks.check_constants(d, 1, a)))
    for nb in (2, 3, 4):
        ops.append(CliOp(("constants", "--n", str(nb)),
                         lambda d, n=nb: checks.check_constants(d, n, Fraction(0)),
                         frozenset({OPEN_CASE})))

    n, kmax = rng.randint(2, 12), rng.randint(2, 30)
    ops.append(CliOp(("mode-scan", "--formula", "J", "--n", str(n), "--kmax", str(kmax)),
                     lambda d, n=n, kmax=kmax: checks.check_mode_scan(
                         d, "J", n, Fraction(0), kmax)))
    n, a, kmax = rng.randint(2, 12), rng.choice(ALPHAS), rng.randint(2, 30)
    ops.append(CliOp(("mode-scan", "--formula", "K", "--n", str(n), "--alpha", num(a),
                      "--kmax", str(kmax)),
                     lambda d, n=n, a=a, kmax=kmax: checks.check_mode_scan(d, "K", n, a, kmax)))

    est = frozenset({ESTIMATE})
    n = rng.randint(5, 12)
    a, amp, rate = (rng.choice(region(n)), rng.choice((0.5, 1, 2, 3)),
                    rng.choice((0.25, 0.5, 1, 2)))
    ops.append(CliOp(("quotient", "--family", "thm1.2-2", "--n", str(n), "--alpha", num(a),
                      "--a", num(amp), "--b", num(rate), "--k", "0"),
                     lambda d, n=n, a=a: checks.check_quotient_closed(
                         d, oracles.radial_constant(n, a), 1e-8), est))
    n = rng.randint(2, 12)
    ops.append(CliOp(("quotient", "--test-function", "--n", str(n)),
                     lambda d, n=n: checks.check_quotient_closed(
                         d, oracles.exp_profile_quotient(n), 1e-10), est))
    n = rng.randint(5, 12)
    a, k = rng.choice(region(n)), rng.randint(1, 3)
    coeffs = _coefficients(rng, rng.randint(2, 4))
    mp = oracles.mode_quotient(oracles.coefficient_terms(coeffs, a + 1), Fraction(1), a + 1,
                               n, a, k)
    path = f"{workdir}/coeffs.txt"
    ops.append(CliOp(("quotient", "--coeffs", path, "--n", str(n), "--alpha", num(a),
                      "--k", str(k)),
                     lambda d, n=n, a=a, k=k, mp=mp: checks.check_quotient_generic(d, n, a, k, mp),
                     est))
    files = ((path, " ".join(num(c) for c in coeffs) + "\n"),)

    # Fails every time, on inputs fixed apart from the seed: the quadrature
    # route of mode_energies misses the closed form at alpha = -7/8 and the
    # command exits 4.  Counted in `failed`; checked like any quotient once
    # it passes.
    a = Fraction(-7, 8)
    mp = oracles.mode_quotient(oracles.family_terms(1, 1, a + 1), Fraction(1), a + 1, 11, a, 1)
    ops.append(CliOp(("quotient", "--family", "thm1.2-2", "--n", "11", "--alpha", num(a),
                      "--k", "1"),
                     lambda d, mp=mp: checks.check_quotient_generic(d, 11, a, 1, mp)))
    return Plan(tuple(ops), files, lambda r: [
        op for b in range(SWEEP_BLOCKS)
        for op in _sweep(random.Random(seed * 1_000_003 + SWEEP_BLOCKS * r + b))])


def _sweep(rng: random.Random) -> List[LibOp]:
    """One block of SWEEP_SIZE library queries with a fixed make-up."""
    import cknlab as ck

    spec = ck.QuadratureSpec()
    out: List[LibOp] = []

    def family(n, a, amp, rate):
        params = ck.InequalityParams(n, float(a))
        fam = ck.ExtremalFamily("thm1.2-2", float(amp), float(rate), params)
        return ck.extremal_profile(fam, spec), params

    def generic(label, make_profile, terms, rate, n, a, k):
        """A profile with no closed quotient; returns the cell its checked
        value lands in, for the invariance queries that follow it."""
        mp = oracles.mode_quotient(terms, rate, a + 1, n, a, k)
        cell = {}

        def call():
            profile, params = make_profile()
            return ck.mode_quotient(profile, params, k, spec)

        def check(value):
            cell["value"] = value
            checks.check_generic_value(value, n, a, k, mp)

        out.append(LibOp(label, call, check))
        return cell

    for _ in range(20):  # extremal family at k = 0 attains the radial constant
        n = rng.randint(2, 12)
        a, amp, rate = rng.choice(region(n)), _dyadic(rng), _dyadic(rng)
        ref = oracles.radial_constant(n, a)
        out.append(LibOp(f"family-k0 n={n} a={a} amp={amp} rate={rate}",
                         lambda n=n, a=a, amp=amp, rate=rate: ck.mode_quotient(
                             *family(n, a, amp, rate), 0, spec),
                         lambda v, ref=ref: checks.check_value(v, ref, 1e-8, "family k=0")))
    for _ in range(8):  # the same family on higher modes
        n = rng.randint(5, 12)
        a, amp, rate, k = rng.choice(region(n)), _dyadic(rng), _dyadic(rng), rng.randint(1, 3)
        generic(f"family-k n={n} a={a} k={k} amp={amp} rate={rate}",
                lambda n=n, a=a, amp=amp, rate=rate: family(n, a, amp, rate),
                oracles.family_terms(amp, rate, a + 1), rate, n, a, k)
    for fid, pool in (("thm1.2-1a", [a for a in ALPHAS if a <= Fraction(-1, 2)]),
                      ("thm1.2-1b", [a for a in ALPHAS if a > Fraction(-1, 2)])):
        for _ in range(8):
            a, amp, rate = rng.choice(pool), _dyadic(rng), _dyadic(rng)
            ref = oracles.one_dim_constant(a)
            out.append(LibOp(f"{fid} a={a} amp={amp} rate={rate}",
                             lambda fid=fid, a=a, amp=amp, rate=rate: ck.one_dim_quotient(
                                 ck.extremal_profile(ck.ExtremalFamily(
                                     fid, float(amp), float(rate),
                                     ck.InequalityParams(1, float(a))), spec),
                                 float(a), spec),
                             lambda v, ref=ref, fid=fid: checks.check_value(v, ref, 1e-8, fid)))
    for _ in range(8):
        n = rng.randint(2, 12)
        ref = oracles.exp_profile_quotient(n)
        out.append(LibOp(f"test-function n={n}", lambda n=n: ck.test_function_quotient(n, spec),
                         lambda v, ref=ref: checks.check_value(v, ref, 1e-10, "test profile")))
    for i in range(16):  # coefficient profiles; the first 8 also dilated and rescaled
        n = rng.randint(3, 12)
        a, k = rng.choice(region(n)), rng.randint(0, 3)
        coeffs = _coefficients(rng, rng.randint(2, 4))
        q = a + 1

        def make(coeffs=coeffs, q=q, n=n, a=a):
            poly = ck.ExpPoly(tuple((j * float(q), float(c)) for j, c in enumerate(coeffs)),
                              1.0, float(q))
            return ck.profile_from_exppoly(poly), ck.InequalityParams(n, float(a))

        cell = generic(f"coeffs n={n} a={a} k={k} c={[str(c) for c in coeffs]}", make,
                       oracles.coefficient_terms(coeffs, q), Fraction(1), n, a, k)
        if i < 8:
            lam, s = rng.choice((0.5, 1.5, 2.0, 3.0)), rng.choice((-2.0, 0.375, 5.0))
            for label, transform in (("coeffs-dilated", lambda p, lam=lam: p.dilated(lam)),
                                     ("coeffs-scaled", lambda p, s=s: p.scaled(s))):
                def call(make=make, k=k, transform=transform):
                    profile, params = make()
                    return ck.mode_quotient(transform(profile), params, k, spec)

                out.append(LibOp(f"{label} n={n} a={a} k={k}", call,
                                 lambda v, cell=cell, label=label: checks.check_value(
                                     v, cell["value"], 1e-9, f"{label} against the original")))
    for _ in range(8):
        formula = rng.choice(("J", "K"))
        n = rng.randint(2, 12)
        a = Fraction(0) if formula == "J" else rng.choice(ALPHAS)
        best, argmin = oracles.mode_minimum(n, a, 64)
        tail = formula == "J" or n >= 5 * a + 5

        def check_inf(res, best=best, argmin=argmin, tail=tail):
            checks.require(res.exact == best and res.argmin_k == argmin,
                           f"mode_infimum {res.exact} at k={res.argmin_k}, "
                           f"expected {best} at k={argmin}")
            checks.require(res.tail_verified == tail, "mode_infimum tail flag")

        out.append(LibOp(f"mode-infimum {formula} n={n} a={a}",
                         lambda formula=formula, n=n, a=a: ck.mode_infimum(
                             formula, ck.InequalityParams(n, float(a)), k_max=64),
                         check_inf))
    for _ in range(8):
        n = rng.choice((1, rng.randint(2, 12)))
        a = rng.choice(ALPHAS if n == 1 else region(n, ALPHAS))
        ref = oracles.sharp_constant(n, a)
        out.append(LibOp(f"sharp-constant n={n} a={a}",
                         lambda n=n, a=a: ck.sharp_constant_closed_form(
                             ck.InequalityParams(n, float(a))),
                         lambda res, ref=ref: checks.require(
                             res.exact == ref, f"sharp constant {res.exact}, expected {ref}")))
    assert len(out) == SWEEP_SIZE
    return out


# -- probe --------------------------------------------------------------------


def _probe(seed: int) -> Plan:
    rng = random.Random(seed)
    return Plan((
        CliOp(("probe-conjecture",), checks.check_probe, frozenset({OPEN_CASE})),
        _minimize_op(*rng.choice(PROBE_RADIAL)),
        _minimize_op(3, 0, 1),
        _minimize_op(*rng.choice(PROBE_WEIGHTED)),
    ), ())


def build(workload: str, seed: int, workdir: str) -> Plan:
    """The plan of one workload; ``workdir`` holds its input files."""
    if workload == "closed-forms":
        return _closed_forms(seed, workdir)
    if workload == "probe":
        return _probe(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
