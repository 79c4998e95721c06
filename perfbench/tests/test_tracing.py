import threading
import time

import pytest

import tracing


def test_self_time_subtracts_union_of_children_on_two_threads():
    # parent 0..10 on thread 1; children on threads 2 and 3 overlap (1..4, 3..6),
    # a grandchild inside the first child, and a child sticking out past the end
    spans = [
        (1, "worker", 1.0, 4.0, 0, 2),
        (2, "worker", 3.0, 6.0, 0, 3),
        (3, "leaf", 2.0, 3.0, 1, 2),
        (4, "worker", 9.0, 12.0, 0, 3),
        (0, "outer", 0.0, 10.0, None, 1),
    ]
    summary = tracing.summarise(spans)
    # outer: 10 s minus the union 1..6 and 9..10 = 6 s covered
    assert summary.self_s["outer"] == pytest.approx(4.0)
    # workers: 3 + 3 + 3 busy, the first one loses the leaf's 1 s
    assert summary.busy_s["worker"] == pytest.approx(9.0)
    assert summary.self_s["worker"] == pytest.approx(8.0)
    assert summary.self_s["leaf"] == pytest.approx(1.0)
    assert summary.calls == {"worker": 3, "leaf": 1, "outer": 1}
    # summaries of separate passes add up
    total = tracing.summarise([])
    total.add(summary)
    total.add(tracing.summarise(spans[:1]))
    assert total.calls["worker"] == 4
    assert total.busy_s["worker"] == pytest.approx(12.0)
    assert total.self_s["outer"] == pytest.approx(4.0)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.covered_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert tracing.covered_length([], 0, 10) == 0


def test_live_spans_on_two_threads_link_to_the_submitting_span():
    tracer = tracing.Tracer()
    nap = tracer.wrap("nap", lambda s: time.sleep(s))

    def outer():
        parent = tracer.current()
        threads = [
            threading.Thread(target=tracer.run_adopted, args=(parent, nap, 0.05))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        tracer.count("outer.done")

    tracer.wrap("outer", outer)()
    spans, counts = tracer.take()
    assert counts["outer.done"] == 1
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    (outer_span,) = by_name["outer"]
    naps = by_name["nap"]
    assert len(naps) == 2
    assert {s[4] for s in naps} == {outer_span[0]}
    assert len({s[5] for s in naps}) == 2  # two threads
    summary = tracing.summarise(spans)
    duration = outer_span[3] - outer_span[2]
    covered = tracing.covered_length([(s[2], s[3]) for s in naps], outer_span[2], outer_span[3])
    assert summary.self_s["outer"] == pytest.approx(duration - covered)
    # the two naps overlap, so the outer span waited about one nap, not two
    assert covered < 0.09
    assert tracer.take() == ([], {})
