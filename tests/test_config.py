import pytest

from grasp.config import RunConfig, parse_config_file, write_key_values


@pytest.mark.parametrize("bad", [
    dict(max_epochs=0),
    dict(batch_size=0),
    dict(patience=0),
    dict(negatives_per_positive=0),
    dict(eval_negatives=0),
    dict(lr=-0.001),
    dict(backbone="lstm"),
    dict(encoder="bert"),
    dict(h=0),
    dict(max_seq_len=0),
    dict(n_heads=0),
    dict(h=64, n_heads=3),
    dict(n_layers=-1),
    dict(d_sem=-1),
    dict(h_hidden=-1),
    dict(dropout=1.0),
    dict(dropout=-0.1),
    dict(k_neighbors=0),
    dict(head_ratio=1.0),
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_rejects_invalid_settings(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


def test_heads_need_not_divide_h_for_gru4rec():
    assert RunConfig(backbone="gru4rec", h=64, n_heads=3).n_heads == 3


def test_key_value_file_round_trips(tmp_path):
    cfg = RunConfig(lr=0.0125, backbone="gru4rec", h=24, dropout=0.35, head_ratio=0.3,
                    encoder="id", no_similar=True, softmax_variant=True)
    path = tmp_path / "model.txt"
    write_key_values(path, cfg.echo())
    assert "no_similar=1\n" in path.read_text()
    assert RunConfig(**parse_config_file(path)) == cfg
