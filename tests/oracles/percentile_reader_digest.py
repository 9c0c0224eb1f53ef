"""The percentile reader's run digest as of commit 52214b7, consumed by ``tests/test_online_reservoir.py::test_the_percentile_reader_keeps_its_reservoirs_and_bytes``.

sha256 of the run's epoch timeline and every ``ScalingDecision`` the
autoscaler returned, serialised as that test's ``reader_digest`` does.
The run learns service times online (no offline profiles) and subtracts
the learned percentile from the wait budget, so the per-bucket
reservoirs are what its decisions read; a 0-sample estimator in their
place reads ``f0e00ff8…`` instead.
"""

DIGEST = "550240b2eabccc4e64827b8c2cae2d662863d0c22f9e7852cdb456d1cc24f484"
