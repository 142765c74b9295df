"""Multi-cluster export/import: the paper's §6 contribution.

GPFS 2.3 GA replaced passwordless-root remote shells with per-cluster RSA
keypairs. The mount-time handshake implemented here follows §6.2:

1. The importing cluster's admin has defined the serving cluster
   (``mmremotecluster``: public key + contact nodes) and the device mapping
   (``mmremotefs``).
2. The serving cluster's admin has installed the importing cluster's public
   key (``mmauth add``) and granted access (``mmauth grant``, per-filesystem
   ro/rw — the PTF2 capability).
3. At ``mmmount`` time, when either side's cipherList requires it, the two
   clusters authenticate with a mutual RSA challenge-response using real
   signatures over fresh nonces, paying WAN round trips to a designated
   contact node. Success registers the mount; the serving cluster then
   "distributes the information that the remote cluster has authenticated
   to all NSD server nodes".

Failures raise :class:`MountAuthError` with the same distinctions GPFS
surfaces: unknown cluster, missing key, bad signature, no grant,
insufficient access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.client import Identity, MountedFs
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Cluster


class MountAuthError(PermissionError):
    """A multi-cluster mount was refused."""


#: bytes on the wire for one handshake leg (key blobs + nonce + signature)
HANDSHAKE_BYTES = 2048.0


def mount_remote(
    importing: "Cluster",
    local_device: str,
    node: str,
    identity: Identity,
    access: str,
    mount_kwargs: dict,
    gateway=None,
) -> Event:
    """Run the cross-cluster mount protocol; event value is a MountedFs.

    With ``gateway`` (a :class:`repro.cache.CacheGateway` serving this
    site), the handshake and access checks are identical but the returned
    mount is a :class:`repro.cache.GatewayMount` whose block traffic runs
    through the gateway cluster.
    """
    gfs = importing.gfs
    return gfs.sim.process(
        _mount_remote(
            importing, local_device, node, identity, access, mount_kwargs, gateway
        ),
        name=f"rmount:{local_device}",
    )


def _mount_remote(importing, local_device, node, identity, access, mount_kwargs,
                  gateway=None):
    gfs = importing.gfs
    rdef = importing.remote_fs[local_device]
    cluster_def = importing.remote_clusters[rdef.cluster]
    serving = gfs.cluster(rdef.cluster)
    contact = cluster_def.contact_nodes[0]

    fs = serving.filesystems.get(rdef.remote_device)
    if fs is None:
        raise MountAuthError(
            f"cluster {serving.name!r} has no filesystem {rdef.remote_device!r}"
        )

    needs_auth = serving.cipher.requires_auth or importing.cipher.requires_auth
    if needs_auth:
        yield from _handshake(importing, serving, node, contact)

    # Per-filesystem access control (mmauth grant, PTF2).
    granted = serving.granted_access(importing.name, rdef.remote_device)
    if granted is None:
        raise MountAuthError(
            f"cluster {serving.name!r} has not granted {importing.name!r} "
            f"access to {rdef.remote_device!r}"
        )
    if access == "rw" and granted == "ro":
        raise MountAuthError(
            f"{rdef.remote_device!r} is exported read-only to {importing.name!r}"
        )

    # "distributes the information that the remote cluster has authenticated
    # to all NSD server nodes" — one fan-out message per server, in NSD
    # order (a set's order would follow the interpreter's hash seed).
    server_nodes = dict.fromkeys(srv.node for srv in fs.service.servers.values())
    for server_node in server_nodes:
        yield gfs.messages.send(contact, server_node, nbytes=256)

    serving.active_remote_mounts += 1
    if gateway is not None:
        if gateway.fs is not fs:
            raise MountAuthError(
                f"gateway {gateway.name!r} caches {gateway.fs.name!r}, "
                f"not {rdef.remote_device!r}"
            )
        from repro.cache.gateway import GatewayMount

        # The gateway cluster serves this mount's blocks: tell its nodes
        # the client authenticated (parallel site-local notification).
        yield gfs.messages.fanout(contact, gateway.nodes, nbytes=256)
        mount = GatewayMount(
            gateway, node, identity=identity, access=access, **mount_kwargs
        )
    else:
        mount = MountedFs(fs, node, identity=identity, access=access, **mount_kwargs)
    mount.remote_cluster = serving.name  # type: ignore[attr-defined]
    return mount


def _handshake(importing, serving, node, contact):
    """Mutual RSA challenge-response between two cluster keystores."""
    gfs = importing.gfs
    if not importing.keystore.has_own:
        raise MountAuthError(
            f"cluster {importing.name!r} has no keypair (run mmauth genkey)"
        )
    if not serving.keystore.has_own:
        raise MountAuthError(
            f"cluster {serving.name!r} has no keypair (run mmauth genkey)"
        )
    if not serving.keystore.knows(importing.name):
        raise MountAuthError(
            f"cluster {serving.name!r} has no public key for {importing.name!r} "
            "(mmauth add missing)"
        )
    if not importing.keystore.knows(serving.name):
        raise MountAuthError(
            f"cluster {importing.name!r} has no public key for {serving.name!r} "
            "(mmremotecluster missing)"
        )

    rng = gfs.rng.stream(f"handshake:{importing.name}:{serving.name}")

    # Leg 1: client → contact node: "I am <cluster>", plus signature over a
    # client nonce. (one WAN message)
    client_nonce = int(rng.integers(1, 2**62))
    client_blob = f"{importing.name}|{client_nonce}".encode()
    client_sig = importing.keystore.own.sign(client_blob)
    yield gfs.messages.send(node, contact, nbytes=HANDSHAKE_BYTES)

    # Serving side verifies against its mmauth-imported key.
    if not serving.keystore.public_of(importing.name).verify(client_blob, client_sig):
        raise MountAuthError(
            f"RSA verification of cluster {importing.name!r} failed at {serving.name!r}"
        )

    # Leg 2: server responds with its own signed nonce. (one WAN message)
    server_nonce = int(rng.integers(1, 2**62))
    server_blob = f"{serving.name}|{server_nonce}|{client_nonce}".encode()
    server_sig = serving.keystore.own.sign(server_blob)
    yield gfs.messages.send(contact, node, nbytes=HANDSHAKE_BYTES)

    # Importing side verifies the serving cluster (mutual authentication).
    if not importing.keystore.public_of(serving.name).verify(server_blob, server_sig):
        raise MountAuthError(
            f"RSA verification of cluster {serving.name!r} failed at {importing.name!r}"
        )


def unmount(gfs, mount: MountedFs) -> None:
    """Release a mount: drop tokens, deregister, decrement remote counts."""
    mount.tokens.release_all()
    if mount in mount.fs.mounts:
        mount.fs.mounts.remove(mount)
    cluster_name = getattr(mount, "remote_cluster", None)
    if cluster_name is not None:
        serving = gfs.clusters.get(cluster_name)
        if serving is not None and serving.active_remote_mounts > 0:
            serving.active_remote_mounts -= 1
