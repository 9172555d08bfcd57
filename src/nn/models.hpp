// Model factories — the scaled stand-ins for the paper's AlexNet,
// ResNet-20/18/50 and DistilBERT (see DESIGN.md §2 for the substitution
// rationale).  Each factory returns an uninitialized Sequential; models
// initialized from the same seed start bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/conv.hpp"
#include "nn/sequential.hpp"

namespace marsit {

/// Plain multi-layer perceptron.
Sequential make_mlp(std::size_t in_features,
                    const std::vector<std::size_t>& hidden,
                    std::size_t num_classes);

/// AlexNet-mini: conv-pool-conv-pool-fc-fc, the workhorse of Table 1,
/// Figure 1, Figure 3 and Figure 5.
Sequential make_alexnet_mini(ImageDims input, std::size_t num_classes);

/// ResNet-mini: stem conv + `blocks_per_stage` residual blocks in each of
/// three stages (channel widths base, 2·base, 4·base with stride-2
/// downsampling between stages) + global average pooling + linear head.
Sequential make_resnet_mini(ImageDims input, std::size_t num_classes,
                            std::size_t blocks_per_stage,
                            std::size_t base_channels);

/// Depth presets mirroring the paper's model lineup.
Sequential make_resnet20_mini(ImageDims input, std::size_t num_classes);
Sequential make_resnet18_mini(ImageDims input, std::size_t num_classes);
Sequential make_resnet50_mini(ImageDims input, std::size_t num_classes);

/// Text classifier: embedding → mean pooling → 2-layer MLP head (the
/// DistilBERT stand-in; trained with Adam like the paper's sentiment task).
Sequential make_text_classifier(std::size_t vocab_size, std::size_t seq_len,
                                std::size_t embed_dim,
                                std::size_t num_classes);

}  // namespace marsit
