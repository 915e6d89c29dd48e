"""rislink: outage-minimal BS/RIS allocation for mmWave factory floors.

Modules: ``geometry`` (occlusion, cones, coverage), ``channel`` (SINR model),
``scenario`` (generation, precomputation, files), ``allocation`` (schedules,
validation, metrics), ``milp`` (model builder and brute-force oracle),
``solvers`` (HiGHS, external adapter), ``lpio`` (LP/MPS),
``heuristic`` (shortest-distance baseline), ``harness`` (trials and sweeps).
"""

__version__ = "0.1.0"
