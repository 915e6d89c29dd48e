"""rislink: outage-minimal BS/RIS allocation for mmWave factory floors.

Modules: ``geometry`` (occlusion, cones, coverage), ``channel`` (Table II
constants, SINR model), ``scenario`` (generation, precomputation, files),
``allocation`` (schedules, validation, metrics), ``milp`` (model builder),
``solvers`` (HiGHS, external adapter), ``lpio`` (LP/MPS),
``heuristic`` (shortest-distance baseline), ``harness`` (trials and sweeps).
"""

__version__ = "0.1.0"
