"""Compensation payoff across dropout rates.

Sweeps the Bernoulli loss probability and reports, for each rate, how
the predictive buffer compares with holding the last input and with
applying zero over a set of paired loss realizations: the median cost
of each strategy, and the buffer's paired wins against each of the
other two.
"""

import argparse
import json

from ncsim.runtime import HOLD_LAST_VALUE, PREDICTIVE_BUFFER, ZERO_INPUT, compare_strategies
from ncsim.scenario import apply_overrides, builtin_scenario_dict, scenario_from_dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", default="0.1,0.3,0.5", help="comma-separated loss probabilities")
    parser.add_argument("--seeds", type=int, default=20, help="paired realizations per rate")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    rates = [float(tok) for tok in args.rates.split(",")]
    strategies = (PREDICTIVE_BUFFER, HOLD_LAST_VALUE, ZERO_INPUT)
    print(
        f"{'p_loss':>7} {'median J pred':>15} {'median J hold':>15} {'median J zero':>15}"
        f" {'wins vs hold':>13} {'wins vs zero':>13}"
    )
    for rate in rates:
        loss = json.dumps({"kind": "bernoulli", "p": rate, "seed": 42})
        doc = apply_overrides(builtin_scenario_dict("tank-reference"), [f"loss={loss}"])
        sc = scenario_from_dict(doc)
        result = compare_strategies(
            sc,
            strategies=strategies,
            n_seeds=args.seeds,
            workers=args.workers,
        )
        cells = [f"{rate:7.2f}"]
        cells += [f"{result.median_cost(name):15.4g}" for name in strategies]
        cells += [
            f"{result.count_wins(PREDICTIVE_BUFFER, name)}/{args.seeds}".rjust(13)
            for name in strategies[1:]
        ]
        print(" ".join(cells))


if __name__ == "__main__":
    main()
