"""Set-up probe: import meridian4 and build one workload's surface, then exit.

Its spawn-to-exit time is the benchmark's ``setup_s``: interpreter start,
``import meridian4``, and the surface built from the workload's config with
the public constructors, profile integration and load-time validation
included. For ``selfcheck`` it ends when the acceptance instances are built.

    python3 perfbench/probe.py CONFIG.json
    python3 perfbench/probe.py selfcheck
"""
import sys

import meridian4


def main(argv) -> int:
    if argv[0] == "selfcheck":
        from meridian4 import acceptance
        acceptance.standard_instances()
        return 0
    import json
    with open(argv[0]) as fh:
        cfg = json.load(fh)
    spec = meridian4.FamilySpec.from_json(cfg["family"])
    meridian4.MeridianSurface(
        profile=meridian4.build_profile(spec),
        directrix=meridian4.latitude_circle(float(cfg["directrix"]["kappa"])),
        name=spec.tag)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
