"""repro — reproduction of "Massive High-Performance Global File Systems
for Grid Computing" (Andrews, Kovatch, Jordan; SC 2005).

The package implements a simulated wide-area Global File System (GFS) in the
style of IBM GPFS multi-clustering as deployed at SDSC across the TeraGrid,
plus every substrate the paper's evaluation depends on:

* ``repro.sim``        — discrete-event simulation kernel
* ``repro.net``        — flow-level WAN/LAN network model (TCP caps, FCIP)
* ``repro.storage``    — disks, RAID, controllers, FC HBAs
* ``repro.core``       — the GPFS-like parallel file system (NSD architecture)
* ``repro.auth``       — RSA multi-cluster auth, GSI identities, UID domains
* ``repro.hsm``        — hierarchical storage management (tape migrate/recall)
* ``repro.grid``       — GridFTP staging baseline and grid job model
* ``repro.workloads``  — Enzo / NVO / SCEC / sort / viz / MPI-IO generators
* ``repro.topology``   — SC'02/'03/'04, TeraGrid, SDSC-2005, DEISA scenarios
* ``repro.experiments``— per-figure harnesses (E1..E10, A1..A3)

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
