"""End-to-end exact SOS certification of sigma <= 8/7 for a candidate base.

Run:  python scripts/certify_h6.py [BASE] [--bound c] [--max-den D] [--out F]

Pipeline: one Douglas-Rachford solve of the affine/PSD feasibility problem
for the degree-1 matrix-SOS identity

    c*I - psi(M*(x)) = V(x)^T Q V(x) + (1 - ||x||^2) T,

then, whatever the solver's status, one walk up a denominator ladder
(7 * 2^j and 21 * 2^j below --max-den, then --max-den, the largest
denominator tried): continued-fraction rounding of the free parameters,
exact reconstruction of the dependent blocks, and an exact LDL^T check that
Q is positive semidefinite. The first rung that passes is checked once more
for the coefficient identity, exactly as `ssc verify` checks it.
H6 is the full-scale case (Q is 105x105); at 8/7 the solver converges in 133
iterations and the certificate lands on denominator 28 in about 0.06 s of CPU
time (Python 3.11, numpy 2.4, one BLAS thread, 2-core VM).  The resulting file is
self-contained and re-checkable with `ssc verify`.
"""

import argparse
import time

from specsum import certify, check, exactq


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base", nargs="?", default="H6",
                    choices=sorted(check.BASES))
    ap.add_argument("--bound", default="8/7")
    ap.add_argument("--max-den", type=int, default=10 ** 4,
                    help="largest denominator tried")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    c = exactq.parse_rational(args.bound)
    cand = certify.cert_base(args.base)

    t0 = time.perf_counter()
    r = certify.certify(cand, c, max_den=args.max_den)
    dt = time.perf_counter() - t0

    print(f"base {args.base}, bound {exactq.format_rational(c)}: {r.status} "
          f"in {dt:.1f}s")
    print(f"  solver: {r.solve.status} after {r.solve.iterations} iterations, "
          f"affine residual {r.solve.affine_residual:.2e}, "
          f"psd residual {r.solve.psd_residual:.2e}")
    if r.attempts:
        print("  denominator ladder:",
              " ".join(f"{d}:{v}" for d, v in r.attempts))
    if r.status != "FOUND":
        print(f"  failing stage: {r.stage}")
        raise SystemExit(1)

    cert = r.certificate
    dens = {x.denominator for row in cert.Q for x in row}
    dens |= {x.denominator for row in cert.T for x in row}
    print(f"  certificate: k={cert.k}, m={cert.m}, Q is {len(cert.Q)}x{len(cert.Q)}, "
          f"denominators {sorted(dens)}")

    ident = certify.verify_identity(cert)
    witness = certify.verify_psd(cert)
    rank = len(witness.decomposition or ())
    print(f"  exact identity: {'ok' if ident.ok else 'VIOLATED'}   "
          f"exact psd: {witness.verdict} (rank {rank} of {len(cert.Q)})")

    out = args.out or f"{args.base}_certificate.txt"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(certify.format_certificate(cert))
    print(f"  wrote {out}")


if __name__ == "__main__":
    main()
