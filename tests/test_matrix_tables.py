"""The one table renderer, pinned per matrix kind.

CI greps each sweep's last line, and EXPERIMENTS.md diffs whole tables
across commits, so a drifting width or heading is a behaviour change.
Fixed outcomes -- one consistent row, one inconsistent row -- must
render to exactly the text each kind printed before the four tables
shared a renderer.
"""

from __future__ import annotations

from repro.tools.campaign import Campaign, CampaignCell, CampaignReport
from repro.tools.crashmatrix import CrashMatrix, CrashOutcome
from repro.tools.interleave import InterleaveMatrix, InterleaveOutcome
from repro.tools.rebalancematrix import RebalanceMatrix, RebalanceOutcome

INTERLEAVE_ROWS = [
    InterleaveOutcome("create-same-name", "preempt", 4, 14, "all_applied",
                      "", 1, True, 0, True),
    InterleaveOutcome("rename-create", "zombie", 11, 12,
                      "INCONSISTENT (first_error=LeaseLostError)",
                      "LeaseLostError", 0, False, 2, False),
]


def test_crash_table():
    rows = [CrashOutcome("create_file", 1, 11, "mount", "rolled_back",
                         True, 0),
            CrashOutcome("writeback-truncate", 12, 13, "fsck",
                         "INCONSISTENT", False, 3)]
    assert CrashMatrix.table(rows) == (
        "op                   recovery   k   T outcome      fsck  orphans\n"
        "---------------------------------------------------------------\n"
        "create_file          mount      1  11 rolled_back  ok          0\n"
        "writeback-truncate   fsck      12  13 INCONSISTENT DIRTY       3\n"
        "---------------------------------------------------------------\n"
        "2 crash points, 1 inconsistent")


def test_interleave_table():
    rule = "-" * 100
    assert InterleaveMatrix.table(INTERLEAVE_ROWS) == (
        "case                   mode         k   T outcome            "
        "first-error     defer fsck  orph vsl \n"
        f"{rule}\n"
        "create-same-name       preempt      4  14 all_applied        "
        "-                   1 ok       0 ok  \n"
        "rename-create          zombie      11  12 INCONSISTENT "
        "(first_error=LeaseLostError) LeaseLostError      0 DIRTY    2 "
        "FORK\n"
        f"{rule}\n"
        "2 cells, 1 inconsistent")


def test_campaign_table():
    report = CampaignReport(
        seed=2008, shards=4, replicas=3, read_quorum=2,
        cells=[CampaignCell("outage+flaky", INTERLEAVE_ROWS[0]),
               CampaignCell("tamper", INTERLEAVE_ROWS[1])],
        post_fsck_clean=True, post_orphans=0,
        shard_metrics={"reads.quorum": 12, "reads.failover": 3,
                       "divergent": 2, "outvoted": 2, "ties": 0,
                       "reads.suspect_served": 0})
    rule = "-" * 100
    assert Campaign.table(report) == (
        "composed campaign: seed=2008 shards=4 replicas=3 read_quorum=2\n"
        "scenario       case                   mode         k   T outcome"
        "            first-error     fsck  vsl \n"
        f"{rule}\n"
        "outage+flaky   create-same-name       preempt      4  14 "
        "all_applied        -               ok    ok  \n"
        "tamper         rename-create          zombie      11  12 "
        "INCONSISTENT (first_error=LeaseLostError) LeaseLostError  DIRTY "
        "FORK\n"
        f"{rule}\n"
        "shard health: quorum_reads=12 failovers=3 divergent=2 outvoted=2 "
        "ties=0 suspect_served=0\n"
        "post-repair fsck: clean, 0 orphans\n"
        "2 cells, 1 inconsistent")


def test_rebalance_table():
    rows = [RebalanceOutcome("resume", 7, 152, "copy", True, "resumed",
                             "target", True, True, True, True, 0, True,
                             True),
            RebalanceOutcome("shard-down", 150, 152, "finish", True,
                             "rolled_back", "other", False, False, False,
                             True, 1, False, False)]
    rule = "-" * 92
    assert RebalanceMatrix.table(rows) == (
        "variant         k    T step      plan         ring    blobs  tree"
        "  fsck  repl  verdict     \n"
        f"{rule}\n"
        "resume          7  152 copy      resumed      target  ok     ok  "
        "  ok    ok    consistent  \n"
        "shard-down    150  152 finish    rolled_back  other   DIFF   DIFF"
        "  DIRTY UNDER INCONSISTENT\n"
        f"{rule}\n"
        "2 cells, 1 inconsistent")
