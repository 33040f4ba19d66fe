"""AccessSanitizer vector-clock and race-detection unit tests."""

from repro.sim.sanitizer import AccessSanitizer


def test_unordered_write_write_detected():
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, True, 10)
    san.record("b", 0x1020, 64, True, 20)
    assert not san.clean
    assert san.races[0]["kind"] == "write-write"
    assert san.races[0]["agents"] == ["a", "b"]
    lo, hi = san.races[0]["range"]
    assert (lo, hi) == (0x1020, 0x1040)


def test_release_acquire_orders_accesses():
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, True, 10)
    san.release("a", ("done", "x"))
    san.acquire("b", ("done", "x"))
    san.record("b", 0x1000, 64, True, 20)
    assert san.clean


def test_acquire_without_release_does_not_order():
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, True, 10)
    san.acquire("b", ("done", "x"))  # nothing was published on this key
    san.record("b", 0x1000, 64, False, 20)
    assert not san.clean
    assert san.races[0]["kind"] == "read-write"


def test_post_release_accesses_are_new_epoch():
    # Accesses an agent makes AFTER its release are not covered by it.
    san = AccessSanitizer()
    san.release("a", ("done", "x"))
    san.record("a", 0x1000, 64, True, 10)  # after the release
    san.acquire("b", ("done", "x"))
    san.record("b", 0x1000, 64, True, 20)
    assert not san.clean


def test_read_read_overlap_is_clean():
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, False, 10)
    san.record("b", 0x1000, 64, False, 20)
    assert san.clean


def test_disjoint_writes_are_clean():
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, True, 10)
    san.record("b", 0x2000, 64, True, 20)
    assert san.clean


def test_same_agent_never_races():
    san = AccessSanitizer()
    for tick in range(10):
        san.record("a", 0x1000, 64, True, tick)
    assert san.clean


def test_transitive_ordering_through_two_keys():
    # a -> dma (cmd), dma -> b (done): a's writes are visible to b.
    san = AccessSanitizer()
    san.record("a", 0x1000, 64, True, 1)
    san.release("a", ("cmd", "dma"))
    san.acquire("dma", ("cmd", "dma"))
    san.release("dma", ("done", "dma"))
    san.acquire("b", ("done", "dma"))
    san.record("b", 0x1000, 64, True, 9)
    assert san.clean


def test_race_dedup_and_cap():
    san = AccessSanitizer(max_reports=2)
    # Same pair/kind/bucket re-raced many times: one report.
    for tick in range(5):
        san.record("a", 0x1000, 8, True, tick)
        san.record("b", 0x1000, 8, True, tick)
    assert len(san.races) == 1
    # Distinct buckets produce distinct reports, up to the cap.
    san.record("a", 0x9000, 8, True, 100)
    san.record("b", 0x9000, 8, True, 101)
    san.record("a", 0xA000, 8, True, 102)
    san.record("b", 0xA000, 8, True, 103)
    assert len(san.races) == 2  # capped


def test_cross_bucket_range_overlap_detected():
    # A write straddling a bucket boundary still collides with a write
    # recorded in the neighbouring bucket.
    san = AccessSanitizer()
    san.record("a", 0x10F0, 32, True, 1)  # crosses the 0x1100 boundary
    san.record("b", 0x1100, 8, True, 2)
    assert not san.clean


def test_summary_shape():
    san = AccessSanitizer()
    san.record("a", 0x1000, 8, True, 1)
    san.release("a", "k")
    summary = san.summary()
    assert summary["clean"] is True
    assert summary["races"] == []
    assert summary["num_records"] == 1
    assert summary["num_syncs"] == 1
    assert summary["agents"] == ["a"]

