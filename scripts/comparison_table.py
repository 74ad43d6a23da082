"""Compare fusion rules on two identical moderately-conflicting sources.

Both sources spread mass 0.2 over a, a|b, a|c, b|c and a|b|c on the
3-atom powerset.  The table shows the fused masses under the normalized
(Dempster) rule, the unnormalized conjunctive rule carried to the frame
(TBM), the entropy-maximizing rule, and its quadratic approximation.
"""

from emrfuse import (
    Bba,
    dempster_fuse,
    emr_fuse,
    emr_fuse_approx,
    powerset_algebra,
    tbm_fuse,
)


def main():
    algebra = powerset_algebra("a", "b", "c")
    spread = {"a": 0.2, "a|b": 0.2, "a|c": 0.2, "b|c": 0.2, "a|b|c": 0.2}
    m = Bba.from_masses(algebra, spread)

    columns = {
        "dempster": dempster_fuse(m, m),
        "tbm": tbm_fuse(m, m),
        "emr": emr_fuse(m, m).bba,
        "emr-approx": emr_fuse_approx([m, m]).bba,
    }

    names = list(columns)
    header = f"{'proposition':<12}" + "".join(f"{name:>12}" for name in names)
    print("sources: m1 = m2 = " + str(spread))
    print()
    print(header)
    print("-" * len(header))
    for prop in algebra.lattice:
        values = [columns[name].mass(prop) for name in names]
        if not any(values):
            continue
        print(f"{algebra.label(prop):<12}" + "".join(
            f"{v:12.6f}" for v in values
        ))
    diag = emr_fuse(m, m).diagnostics
    print()
    print(f"emr entropy {diag.entropy:.6f}, certificate "
          f"{diag.optimality_certificate:.2e}, "
          f"{diag.iterations} iterations")


if __name__ == "__main__":
    main()
