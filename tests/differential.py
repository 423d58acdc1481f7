"""The rig the differential suites share: one seeded workload, run
under pinned entropy with a config axis on every client it mounts.

Byte-identical ciphertext across two independently-keyed runs needs
the crypto layer pinned: ``pinned_entropy`` swaps the ``secrets``
entropy calls for a seeded generator, so both runs mint the same keys,
IVs and signature nonces in the same order.  Workloads mount fresh
clients with configs of their own (cache sweeps); the axis reaches
those through the runner's ``env.client_overrides``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

from repro.fs.client import ClientConfig
from repro.fs.permissions import AclEntry
from repro.tools.twin import pinned_entropy
from repro.workloads.runner import BenchEnv, make_env

WORKLOADS = ("postmark", "andrew", "createlist", "sharing")

#: the batching suite's seed, which the sharded runs share.
SEED = 0x5EED


def sharing_script(env: BenchEnv) -> None:
    """Sharing/revocation mix: ACL grants, revocation (re-encryption),
    ownership churn, rename and unlink -- the mutation-heavy paths that
    fan multi-blob writes out, and whose invalidations a cache must
    survive."""
    fs = env.fs
    payload = b"collaborative document " * 40
    fs.mkdir("/proj", mode=0o755)
    for i in range(6):
        fs.create_file(f"/proj/f{i}", payload + bytes([i]), mode=0o644)
    fs.set_acl("/proj/f0", (AclEntry("bob", 0o4),))
    fs.set_acl("/proj/f1", (AclEntry("bob", 0o6),))
    fs.chmod("/proj/f2", 0o600)
    fs.chown("/proj/f3", "bob")
    # Revoke bob's grant: with immediate_revocation this re-encrypts.
    fs.set_acl("/proj/f0", ())
    fs.rename("/proj/f4", "/proj/g4")
    fs.unlink("/proj/f5")


def run_workload(workload: str, env: BenchEnv) -> None:
    if workload == "postmark":
        from repro.workloads import postmark
        # Postmark namespaces each pass with a process-global counter;
        # pin it so both differential runs build identical paths.
        postmark._RUN_COUNTER = itertools.count()
        postmark.run_postmark(env, files=30, transactions=40, subdirs=3)
    elif workload == "andrew":
        from repro.workloads.andrew import run_andrew
        run_andrew(env)
    elif workload == "createlist":
        from repro.workloads.createlist import run_create_and_list
        run_create_and_list(env, files=60, dirs=6)
    elif workload == "sharing":
        sharing_script(env)
    else:  # pragma: no cover
        raise AssertionError(workload)


@contextmanager
def differential_env(workload: str, seed: int, config: dict,
                     **env_args):
    """A sharoes environment (alice and bob) that ran ``workload`` under
    entropy pinned to ``seed``, every client it mounted configured with
    ``config``; ``env_args`` go to ``make_env``.  The caller reads its
    results inside, still pinned."""
    with pinned_entropy(seed):
        env = make_env("sharoes", config=ClientConfig(**config),
                       extra_users=("bob",), **env_args)
        env.client_overrides.update(config)
        run_workload(workload, env)
        yield env
