"""Construct a simulated system from a :class:`SystemConfig`.

:func:`build_system` builds the whole system a config describes: one
socket, or a :class:`~repro.multisocket.MultiSocketSystem` of
``config.n_sockets``.  :func:`build_socket` builds one socket: it
dispatches on ``config.protocol`` and right-sizes the mesh when the core
and bank count outgrow the Table I default (the 128-core server socket).
"""

from __future__ import annotations

import math

from repro.coherence.protocol import CMPSystem
from repro.common.config import MeshConfig, Protocol, SystemConfig


def _mesh_for(config: SystemConfig) -> MeshConfig:
    needed = config.n_cores + config.llc_banks
    mesh = config.mesh
    if mesh.width * mesh.height >= needed:
        return mesh
    width = math.ceil(math.sqrt(needed))
    height = math.ceil(needed / width)
    return MeshConfig(width=width, height=height)


def build_system(config: SystemConfig):
    """Build the system ``config`` describes, of one socket or more."""
    if config.n_sockets > 1:
        from repro.multisocket.system import MultiSocketSystem
        return MultiSocketSystem(config)
    return build_socket(config)


def build_socket(config: SystemConfig) -> CMPSystem:
    """Build one socket implementing ``config.protocol``."""
    mesh = _mesh_for(config)
    if mesh is not config.mesh:
        # Only re-validate the config when the mesh actually resizes.
        config = config.with_(mesh=mesh)
    if config.protocol is Protocol.BASELINE:
        return CMPSystem(config)
    if config.protocol is Protocol.ZERODEV:
        from repro.core.protocol import ZeroDEVSystem
        return ZeroDEVSystem(config)
    if config.protocol is Protocol.SECDIR:
        from repro.baselines.secdir import SecDirSystem
        return SecDirSystem(config)
    if config.protocol is Protocol.MGD:
        from repro.baselines.mgd import MgDSystem
        return MgDSystem(config)
    if config.protocol is Protocol.DLS:
        from repro.baselines.dls import DLSSystem
        return DLSSystem(config)
    if config.protocol is Protocol.HYBRID:
        from repro.baselines.hybrid import HybridSystem
        return HybridSystem(config)
    raise ValueError(f"unknown protocol {config.protocol!r}")
