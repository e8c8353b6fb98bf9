"""Unit tests for the SWF reader/writer."""

import pytest

from repro.workload.swf import read_swf, write_swf
from tests.conftest import make_job


def _swf_line(
    job_id=1,
    submit=100,
    run_time=500,
    allocated=4,
    requested=8,
    requested_time=1000,
    queue=0,
    preceding=-1,
):
    fields = [
        job_id, submit, -1, run_time, allocated, -1, -1,
        requested, requested_time, -1, 1, 42, -1, -1, queue, -1, preceding, -1,
    ]
    return " ".join(str(f) for f in fields)


class TestRead:
    def test_basic_record(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line() + "\n")
        jobs = read_swf(path)
        assert len(jobs) == 1
        job = jobs[0]
        assert job.job_id == 1
        assert job.submit_time == 100.0
        assert job.runtime == 500.0
        assert job.size == 8           # requested procs preferred
        assert job.walltime == 1000.0
        assert job.user == "42"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("; header\n\n" + _swf_line() + "\n; trailer\n")
        assert len(read_swf(path)) == 1

    def test_procs_per_node_division(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(requested=10) + "\n")
        jobs = read_swf(path, procs_per_node=4)
        assert jobs[0].size == 3  # ceil(10/4)

    def test_fallback_to_allocated_procs(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(requested=-1, allocated=6) + "\n")
        assert read_swf(path)[0].size == 6

    def test_fallback_to_runtime_for_walltime(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(requested_time=-1, run_time=321) + "\n")
        assert read_swf(path)[0].walltime == 321.0

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError,
                           match=r"t\.swf:1: expected 18 fields, got 3$"):
            read_swf(path)

    def test_non_numeric_field_raises_with_position(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line() + "\n" + _swf_line(job_id="oops") + "\n")
        with pytest.raises(ValueError, match=r"t\.swf:2"):
            read_swf(path)


class TestLenientRead:
    """Damaged archive lines: records the reader drops are skipped, and
    any unparseable line stops the read with ``path:line`` and why."""

    def test_malformed_lines_name_path_line_and_reason(self, tmp_path):
        path = tmp_path / "t.swf"
        good = "; header\n" + _swf_line(job_id=1) + "\n"
        path.write_text(good + "1 2 3\n" + _swf_line(job_id=2) + "\n")
        with pytest.raises(ValueError,
                           match=r"t\.swf:3: expected 18 fields, got 3$"):
            read_swf(path)
        path.write_text(good + _swf_line(job_id="oops") + "\n")
        with pytest.raises(ValueError,
                           match=r"t\.swf:3: invalid literal .*'oops'"):
            read_swf(path)

    def test_clean_file_produces_no_warning(self, tmp_path):
        import warnings

        path = tmp_path / "t.swf"
        path.write_text(_swf_line() + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jobs = read_swf(path)
        assert len(jobs) == 1

    def test_skipped_records_counted_separately(self, tmp_path):
        """A dropped record is no error, but its line still counts."""
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(run_time=0) + "\n" + _swf_line(job_id=2) + "\n")
        assert [j.job_id for j in read_swf(path)] == [2]
        path.write_text(_swf_line(run_time=0) + "\n" + "x y z\n")
        with pytest.raises(ValueError, match=r"t\.swf:2: "):
            read_swf(path)

    @pytest.mark.parametrize("fields", [
        dict(submit="nan"),
        dict(run_time="nan"),
        dict(run_time="inf"),
        dict(requested_time="inf"),
    ])
    def test_non_finite_time_is_malformed(self, tmp_path, fields):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(job_id=1, **fields) + "\n"
                        + _swf_line(job_id=2) + "\n")
        with pytest.raises(ValueError, match=r"t\.swf:1: .*must be finite"):
            read_swf(path)

    def test_report_detail_capped(self, tmp_path):
        """Many bad lines: the error names the first, and only it."""
        path = tmp_path / "t.swf"
        path.write_text(_swf_line() + "\n" + "x y z\n" * 25)
        with pytest.raises(ValueError) as err:
            read_swf(path)
        assert str(err.value) == f"{path}:2: expected 18 fields, got 3"

    def test_summary_mentions_path_and_counts(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line() + "\nnope\n")
        with pytest.raises(ValueError,
                           match=r"t\.swf:2: expected 18 fields, got 1$"):
            read_swf(path)

    def test_zero_runtime_record_skipped(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(run_time=0) + "\n" + _swf_line(job_id=2) + "\n")
        jobs = read_swf(path)
        assert [j.job_id for j in jobs] == [2]

    def test_max_jobs_limit(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("\n".join(_swf_line(job_id=i) for i in (1, 2, 3)))
        assert len(read_swf(path, max_jobs=2)) == 2

    def test_high_priority_queue_mapping(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(queue=3) + "\n")
        assert read_swf(path, high_priority_queues=frozenset({3}))[0].priority == 1
        assert read_swf(path)[0].priority == 0

    def test_dependency_kept_when_parent_present(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(
            _swf_line(job_id=1) + "\n" + _swf_line(job_id=2, preceding=1) + "\n"
        )
        jobs = read_swf(path)
        assert jobs[1].dependencies == (1,)

    def test_dependency_dropped_when_parent_missing(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(_swf_line(job_id=2, preceding=99) + "\n")
        assert read_swf(path)[0].dependencies == ()

    def test_sorted_by_submit_time(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text(
            _swf_line(job_id=1, submit=500) + "\n" + _swf_line(job_id=2, submit=100) + "\n"
        )
        jobs = read_swf(path)
        assert [j.job_id for j in jobs] == [2, 1]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        original = [
            make_job(size=4, walltime=1000.0, runtime=500.0, submit=100.0,
                     priority=1, job_id=1),
            make_job(size=2, walltime=600.0, runtime=600.0, submit=200.0,
                     job_id=2, deps=(1,)),
        ]
        path = tmp_path / "out.swf"
        write_swf(original, path, header="round trip test")
        recovered = read_swf(path, high_priority_queues=frozenset({1}))
        assert len(recovered) == 2
        for a, b in zip(original, recovered):
            assert a.job_id == b.job_id
            assert a.size == b.size
            assert a.submit_time == b.submit_time
            assert a.runtime == b.runtime
            assert a.walltime == b.walltime
            assert a.priority == b.priority
        assert recovered[1].dependencies == (1,)

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "out.swf"
        write_swf([make_job(job_id=1)], path, header="line1\nline2")
        text = path.read_text()
        assert text.startswith("; line1\n; line2\n")

    def test_raising_jobs_leave_the_earlier_file(self, tmp_path):
        """A write cut short by its job iterable is not a shorter trace."""
        path = tmp_path / "out.swf"
        write_swf([make_job(job_id=i, submit=float(i)) for i in range(3)], path)
        before = path.read_bytes()
        jobs = (make_job(job_id=7) if i == 0 else 1 / 0 for i in range(2))
        with pytest.raises(ZeroDivisionError):
            write_swf(jobs, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.swf"]
