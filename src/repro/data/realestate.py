"""Synthetic substitute for the paper's Danish real-estate dataset.

The paper's real-data experiments (Section 7.5) use a proprietary snapshot
of the Danish OIS property register: "almost 4.2 million properties in
Denmark as of 2005", reduced to "1.28M records after removing records with
missing data", with "4 dimensions suitable for constrained skyline
computation: year (year of construction), sqrm (size in m2), valuation
(property tax valuation) and price (actual sales price)".  That snapshot is
not publicly available, so this module generates a synthetic stand-in with
the same schema and the statistical features that matter for the paper's
experiments:

- **age** (years since construction, i.e. ``2005 - year``): a mixture of
  construction eras -- pre-war building stock, the post-war boom, and modern
  construction -- giving a multi-modal, long-tailed marginal;
- **sqrm**: log-normal floor areas around ~115 m2, clipped to [25, 800];
- **valuation**: driven by size and age (newer and bigger appraise higher)
  times log-normal regional noise, so it correlates positively with sqrm and
  negatively with age;
- **price**: the valuation times a noisy market factor, i.e. strongly
  correlated with valuation but not identical.

All four columns are oriented so that *smaller is better* (the library's
skyline convention; the paper handles maximization by negation, Section 3's
footnote): a buyer prefers newer (low age), and we keep size, valuation and
price as-is for a cost-conscious search.  The mixed correlation structure --
two strongly correlated dimensions (valuation, price), one anti-correlated
pair (age vs. valuation) and one partially independent (sqrm) -- is what
makes the workload interesting, and is preserved by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

COLUMNS = ("age", "sqrm", "valuation", "price")

FULL_SIZE = 1_280_000  # paper's post-cleaning cardinality


def danish_real_estate(
    n: int = FULL_SIZE, seed: Optional[int] = 2005
) -> np.ndarray:
    """Return an ``(n, 4)`` array of synthetic Danish property records.

    Columns are ``(age, sqrm, valuation, price)``; see the module docstring
    for the generative model.  Valuation and price are in thousands of DKK.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)

    # Construction era mixture: pre-war stock, post-war boom, modern.
    era = rng.choice(3, size=n, p=[0.25, 0.35, 0.40])
    age = np.empty(n)
    age[era == 0] = rng.uniform(55.0, 155.0, size=(era == 0).sum())
    age[era == 1] = rng.uniform(25.0, 55.0, size=(era == 1).sum())
    age[era == 2] = rng.uniform(0.0, 25.0, size=(era == 2).sum())

    sqrm = np.clip(rng.lognormal(np.log(115.0), 0.35, size=n), 25.0, 800.0)

    # Appraised value: per-m2 rate decays with age, with regional noise.
    rate_per_m2 = 14.0 * np.exp(-age / 120.0)  # kDKK per m2
    valuation = sqrm * rate_per_m2 * rng.lognormal(0.0, 0.30, size=n)
    valuation = np.clip(valuation, 50.0, None)

    # Sales price: market factor around the valuation.
    price = valuation * rng.lognormal(0.05, 0.20, size=n)
    price = np.clip(price, 40.0, None)

    return np.column_stack([age, sqrm, valuation, price])

