"""The same seed gives byte-identical inputs; another seed, other files."""

import inputs


def _contents(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def test_singleton_inputs_repeat_byte_for_byte(tmp_path):
    first, second, other = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    for directory in (first, second, other):
        directory.mkdir()
    inputs.singleton_pairs(7, first)
    inputs.singleton_pairs(7, second)
    inputs.singleton_pairs(8, other)
    assert _contents(first) == _contents(second)
    assert _contents(first) != _contents(other)


def test_service_inputs_repeat_byte_for_byte(tmp_path):
    runs = []
    for index in range(2):
        directory = tmp_path / str(index)
        directory.mkdir()
        service = inputs.service_inputs(7, directory)
        service.next_write()
        service.chain.grow()
        runs.append(_contents(directory))
    assert runs[0] == runs[1]


def test_truth_names_only_activities_of_the_files(tmp_path):
    for pair in inputs.singleton_pairs(3, tmp_path):
        first, second = pair.activities()
        assert pair.truth
        for left, right in pair.truth:
            assert left <= first and right <= second
