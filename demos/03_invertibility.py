"""Which states can be rebuilt from local windows at all?

The recursion can only succeed when every window retains the full
rank of the corresponding bipartite cut of the global state.  This
demo probes that condition two ways:

  * dense rank comparison (needs the full matrix, small N only),
  * a sufficient condition on the MPO tensors that scales to large N,
    checking that window-sized tensor products span the bond spaces.

GHZ is the classic failure: its 4-dimensional cut rank collapses to 2
in any interior window that drops a boundary, so 1-site contexts are
not enough.  Product states and the maximally mixed state pass with
the smallest possible windows, and generic random states pass with
modest ones.

Run:  python3 demos/03_invertibility.py
"""

import numpy as np

from mpotomo import (
    DenseOperator,
    check_invertibility_dense,
    check_invertibility_mpo_spans,
    ghz_state,
    product_state,
    random_mpo_via_ancilla,
)


def dense_case(label, rho, l, r):
    rep = check_invertibility_dense(rho, l, r)
    verdict = "invertible" if rep.is_invertible else "NOT invertible"
    print(f"  {label:<24} (l={l}, r={r}): {verdict}")
    for row in rep.rows:
        if not row["ok"]:
            print(f"      site {row['k']}: window rank {row['rank_window']}"
                  f" < cut rank {row['rank_cut']}")
    return rep.is_invertible


def main():
    n = 6
    print(f"dense rank check, N={n}")

    _, ghz = ghz_state(n)
    ghz_dense = ghz.to_dense()
    dense_case("GHZ", ghz_dense, 1, 1)
    dense_case("GHZ", ghz_dense, 2, 2)

    _, prod = product_state(n)
    dense_case("product |0...0>", prod.to_dense(), 1, 1)

    maxmix = DenseOperator(np.eye(2 ** n) / 2 ** n)
    dense_case("maximally mixed", maxmix, 1, 1)

    print(f"\ntensor span check (no dense matrix needed), N={n}")
    rho = random_mpo_via_ancilla(n, seed=1)
    for l, r in [(1, 1), (2, 2)]:
        rep = check_invertibility_mpo_spans(rho, l, r)
        verdict = "sufficient" if rep.sufficient else "not conclusive"
        print(f"  random mixed state      (l={l}, r={r}): {verdict}")
        for row in rep.rows:
            if not row["ok"]:
                print(f"      site {row['k']}: left span {row['rank_left']}"
                      f"/{row['dim_left']}, right span {row['rank_right']}"
                      f"/{row['dim_right']}")

    print("\nGHZ keeps long-range ZZ correlations with no decaying tail,")
    print("so small windows genuinely cannot tell it apart from a classical")
    print("mixture of |00...0> and |11...1>; widening the context does not")
    print("fix it at any fixed width.  Generic states have full-rank")
    print("transfer structure and already pass at (l, r) = (2, 2).")


if __name__ == "__main__":
    main()
