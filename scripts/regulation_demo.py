"""Loss-free regulation of the tank benchmark.

Runs the reference scenario without dropouts, once with the nominal
disturbance schedule and once with the disturbance removed, and prints
how the pressure deviation shrinks over the hour.
"""

import argparse

from ncsim.runtime import PREDICTIVE_BUFFER, run_scenario
from ncsim.scenario import apply_overrides, builtin_scenario_dict, scenario_from_dict


def run_once(label: str, overrides: list) -> None:
    doc = apply_overrides(builtin_scenario_dict("tank-reference"), overrides)
    sc = scenario_from_dict(doc)
    records = []
    x_final = run_scenario(sc, PREDICTIVE_BUFFER, records).x_final
    initial = abs(sc.sim.x0 - sc.controller.setpoint)

    print(f"{label}: setpoint {sc.controller.setpoint:.0f} Pa, start {sc.sim.x0:.0f} Pa")
    stride = max(1, len(records) // 6)
    for record in records[::stride]:
        deviation = abs(record.x_true - sc.controller.setpoint)
        print(
            f"  t={record.t:6.0f} s  x={record.x_true:10.1f} Pa"
            f"  u={record.u:5.3f}  |x-ref|={deviation:9.1f}"
        )
    final = abs(x_final - sc.controller.setpoint)
    print(f"  final deviation {final:.1f} Pa ({100.0 * final / initial:.2f}% of initial)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    run_once("nominal disturbance", [])
    print()
    run_once("disturbance off", ["sim.theta=0"])


if __name__ == "__main__":
    main()
