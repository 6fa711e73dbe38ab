"""Regenerate the JSON fixtures shipped under src/skv/fixtures.

`fixture_q_zeta(p)` builds the ladder field Q(zeta_p), which is not
shipped: `write_ladder_fixture` writes it where a caller asks.  The
synthetic monomial fixture (s3c2) derives its theta-source metadata
(certificates, translated place labels, character indexing) from the
library itself so the shipped data can never drift out of sync with the
table conventions.  Run from the repository root:

    python3 tools/make_fixtures.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from skv.cyclotomic import Cyclo  # noqa: E402
from skv.engine import _product_split, translated_place_labels  # noqa: E402
from skv.arithdata import ExtensionFixture  # noqa: E402
from skv.characters import irreducibles_monomial  # noqa: E402
from skv.groups import named_group  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "skv", "fixtures")


def trivial_class_group(group_order, set_t):
    return {
        "setT": set_t,
        "factors": [1],
        "action": {str(g): [[0]] for g in range(group_order)},
    }


def fixture_q():
    return {
        "schema": "skvfix/1",
        "name": "q",
        "group": {"table": [[0]], "labels": ["e"]},
        "places": [
            {"label": "inf", "infinite": True, "decompositionGens": []},
            {"label": "3", "residueChar": 3, "residueNorm": 3,
             "decompositionGens": [], "frobenius": 0},
            {"label": "5", "residueChar": 5, "residueNorm": 5,
             "decompositionGens": [], "frobenius": 0},
        ],
        "muL": {"order": 2, "action": {"0": 1}},
        "classGroups": [trivial_class_group(1, ["3"])],
        "cyclotomic": {"conductor": 1, "map": {"1": 0}},
    }


def fixture_q_i():
    c2 = {"table": [[0, 1], [1, 0]], "labels": ["e", "j"]}
    return {
        "schema": "skvfix/1",
        "name": "q_i",
        "group": c2,
        "complexConjugation": 1,
        "places": [
            {"label": "inf", "infinite": True, "complexAtL": True,
             "decompositionGens": [1]},
            {"label": "2", "residueChar": 2, "residueNorm": 2,
             "decompositionGens": [1], "inertiaGens": [1], "frobenius": 0,
             "ramified": True, "wild": True},
            {"label": "3", "residueChar": 3, "residueNorm": 3,
             "decompositionGens": [1], "frobenius": 1},
            {"label": "5", "residueChar": 5, "residueNorm": 5,
             "decompositionGens": [], "frobenius": 0},
        ],
        "muL": {"order": 4, "action": {"0": 1, "1": 3}},
        "classGroups": [trivial_class_group(2, ["5"])],
        "cyclotomic": {"conductor": 4, "map": {"1": 0, "3": 1}},
    }


def fixture_q_zeta3():
    c2 = {"table": [[0, 1], [1, 0]], "labels": ["e", "s"]}
    return {
        "schema": "skvfix/1",
        "name": "q_zeta3",
        "group": c2,
        "complexConjugation": 1,
        "places": [
            {"label": "inf", "infinite": True, "complexAtL": True,
             "decompositionGens": [1]},
            {"label": "3", "residueChar": 3, "residueNorm": 3,
             "decompositionGens": [1], "inertiaGens": [1], "frobenius": 0,
             "ramified": True, "wild": False},
            {"label": "5", "residueChar": 5, "residueNorm": 5,
             "decompositionGens": [1], "frobenius": 1},
            {"label": "7", "residueChar": 7, "residueNorm": 7,
             "decompositionGens": [], "frobenius": 0},
        ],
        "muL": {"order": 6, "action": {"0": 1, "1": 5}},
        "classGroups": [trivial_class_group(2, ["7"])],
        "cyclotomic": {"conductor": 3, "map": {"1": 0, "2": 1}},
    }


def fixture_q_sqrt_m5():
    c2 = {"table": [[0, 1], [1, 0]], "labels": ["e", "s"]}
    # kernel of the quadratic character of conductor 20: 1, 3, 7, 9
    kernel = {1, 3, 7, 9}
    cyc_map = {str(a): (0 if a % 20 in kernel else 1)
               for a in range(1, 21) if a % 2 and a % 5}
    return {
        "schema": "skvfix/1",
        "name": "q_sqrt_m5",
        "group": c2,
        "complexConjugation": 1,
        "places": [
            {"label": "inf", "infinite": True, "complexAtL": True,
             "decompositionGens": [1]},
            {"label": "2", "residueChar": 2, "residueNorm": 2,
             "decompositionGens": [1], "inertiaGens": [1], "frobenius": 0,
             "ramified": True, "wild": True},
            {"label": "5", "residueChar": 5, "residueNorm": 5,
             "decompositionGens": [1], "inertiaGens": [1], "frobenius": 0,
             "ramified": True, "wild": False},
            {"label": "3", "residueChar": 3, "residueNorm": 3,
             "decompositionGens": [], "frobenius": 0},
            {"label": "11", "residueChar": 11, "residueNorm": 11,
             "decompositionGens": [1], "frobenius": 1},
        ],
        "muL": {"order": 2, "action": {"0": 1, "1": 1}},
        "classGroups": [
            {"setT": ["3"], "p": 2, "factors": [2],
             "action": {"0": [[1]], "1": [[1]]}},
        ],
        "cyclotomic": {"conductor": 20, "map": cyc_map},
    }


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _q_zeta_fixture(name, p, g, unramified):
    """Q(zeta_p)/Q for an odd prime p, with its group cyclic of order
    p - 1 on the labels s{g}^k for a primitive root g mod p, and the
    places inf, p and the given unramified primes."""
    n = p - 1
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [f"s{g}^{k}" for k in range(n)]
    # discrete logarithm base g mod p
    dlog = {}
    x = 1
    for k in range(n):
        x = x * g % p if k else 1
        dlog[x] = k
    # mu_L has order 2p; sigma_{g^k} acts by the odd residue a mod 2p
    # with a = g^k mod p
    mu_action = {}
    for a, k in dlog.items():
        b = a if a % 2 else a + p
        mu_action[str(k)] = b % (2 * p)
    places = [
        {"label": "inf", "infinite": True, "complexAtL": True,
         "decompositionGens": [n // 2]},
        {"label": str(p), "residueChar": p, "residueNorm": p,
         "decompositionGens": [1], "inertiaGens": [1], "frobenius": 0,
         "ramified": True, "wild": False},
    ]
    for q in unramified:
        frob = dlog[q % p]
        places.append({"label": str(q), "residueChar": q, "residueNorm": q,
                       "decompositionGens": [frob] if frob else [],
                       "frobenius": frob})
    return {
        "schema": "skvfix/1",
        "name": name,
        "group": {"table": table, "labels": labels},
        "complexConjugation": n // 2,
        "places": places,
        "muL": {"order": 2 * p, "action": mu_action},
        "cyclotomic": {"conductor": p,
                       "map": {str(a): k for a, k in dlog.items()}},
    }


def fixture_q_zeta23():
    out = _q_zeta_fixture("q_zeta23", 23, 5, [29, 47])
    out["classGroups"] = [
        # Cl is cyclic of order 3; sigma_{5^k} acts by (-1)^k
        {"setT": ["47"], "p": 3, "factors": [3],
         "action": {str(k): [[2 if k % 2 else 1]] for k in range(22)}},
    ]
    return out


def fixture_q_zeta(p):
    """The ladder field Q(zeta_p), p an odd prime: the smallest primitive
    root mod p names the group elements, and the places are inf, p, the
    least prime q with q != 1 (mod p), which is 2, and the least prime
    l = 1 (mod p).  It has no class groups, so Brumer is inconclusive on
    it."""
    g = next(a for a in range(2, p) if len({pow(a, k, p) for k in range(p - 1)}) == p - 1)
    ell = next(ell for ell in range(p + 1, p * p, p) if _is_prime(ell))
    return _q_zeta_fixture(f"q_zeta{p}", p, g, [2, ell])


def write_ladder_fixture(p, directory):
    """Write fixture_q_zeta(p) to directory/q_zeta{p}.json and return the
    path.  Ladder files are compact JSON in key insertion order; the report
    digests pinned for them cover these exact bytes."""
    path = os.path.join(directory, f"q_zeta{p}.json")
    with open(path, "w") as fh:
        json.dump(fixture_q_zeta(p), fh)
    return path


def fixture_s3c2():
    group = named_group("S3xC2")
    base = {
        "schema": "skvfix/1",
        "name": "s3c2",
        "group": {"table": group.table,
                  "labels": list(group.labels)},
        "muL": {"order": 1, "action": {str(g): 0 for g in range(group.order)}},
    }
    order6 = next(g for g in range(group.order) if group.element_order(g) == 6)
    order2 = next(g for g in range(1, group.order)
                  if group.element_order(g) == 2 and g not in group.center())
    base["places"] = [
        {"label": "inf", "infinite": True, "decompositionGens": []},
        {"label": "q5", "residueChar": 5, "residueNorm": 5,
         "decompositionGens": [order6], "frobenius": order6},
        {"label": "q7", "residueChar": 7, "residueNorm": 7,
         "decompositionGens": [order2], "frobenius": order2},
    ]
    # synthetic theta sources for every (S, T) the default checks request
    fix = ExtensionFixture(dict(base, subextensionThetas=[]))
    h_elems, c_elems = _product_split(fix)
    sub_h, back_h = group.subgroup_as_group(sorted(h_elems))
    tab_h = irreducibles_monomial(sub_h)
    n_lam = len(irreducibles_monomial(group.subgroup_as_group(sorted(c_elems))[0]))
    sources = []
    batches = [[], ["q5"], ["q7"], ["q5", "q7"]]
    for t_idx, t_labels in enumerate(batches):
        for i in range(len(tab_h)):
            cert = tab_h.certificates[i]
            m_elems = sorted({group.mul(back_h[u], c)
                              for u in cert.u_elems for c in c_elems})
            sources.append({
                "schema": "skvtheta/1",
                "chiIndex": i,
                "uElems": sorted(cert.u_elems),
                "sPrimeLabels": translated_place_labels(fix, m_elems, ["inf"]),
                "tPrimeLabels": translated_place_labels(fix, m_elems, t_labels),
                "r": 0,
                "provenance": "synthetic: even integers for integrality suites",
                "values": {str(j): Cyclo.rational(2 * (i + j + 1) * (t_idx + 1)).to_json()
                           for j in range(n_lam)},
            })
    base["subextensionThetas"] = sources
    return base


def main():
    os.makedirs(OUT, exist_ok=True)
    for build in (fixture_q, fixture_q_i, fixture_q_zeta3, fixture_q_sqrt_m5,
                  fixture_q_zeta23, fixture_s3c2):
        data = build()
        ExtensionFixture(data)  # validate before writing
        path = os.path.join(OUT, data["name"] + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
