#include "nn/models.hpp"

#include <memory>
#include <utility>

#include "nn/activation.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/residual.hpp"
#include "util/check.hpp"

namespace marsit {

Sequential make_mlp(std::size_t in_features,
                    const std::vector<std::size_t>& hidden,
                    std::size_t num_classes) {
  std::vector<std::unique_ptr<Layer>> layers;
  std::size_t width = in_features;
  for (std::size_t h : hidden) {
    layers.push_back(std::make_unique<Linear>(width, h));
    layers.push_back(std::make_unique<Relu>(h));
    width = h;
  }
  layers.push_back(std::make_unique<Linear>(width, num_classes));
  return Sequential(std::move(layers));
}

Sequential make_alexnet_mini(ImageDims input, std::size_t num_classes) {
  std::vector<std::unique_ptr<Layer>> layers;

  Conv2d conv1(input, /*out_channels=*/12, /*kernel=*/3, /*stride=*/1,
               /*padding=*/1);
  const ImageDims c1 = conv1.out_dims();
  layers.push_back(std::make_unique<Conv2d>(input, 12, 3, 1, 1));
  layers.push_back(std::make_unique<Relu>(c1.size()));

  MaxPool2d pool1(c1, /*kernel=*/2);
  const ImageDims p1 = pool1.out_dims();
  layers.push_back(std::make_unique<MaxPool2d>(c1, 2));

  Conv2d conv2(p1, /*out_channels=*/24, /*kernel=*/3, /*stride=*/1,
               /*padding=*/1);
  const ImageDims c2 = conv2.out_dims();
  layers.push_back(std::make_unique<Conv2d>(p1, 24, 3, 1, 1));
  layers.push_back(std::make_unique<Relu>(c2.size()));

  MaxPool2d pool2(c2, /*kernel=*/2);
  const ImageDims p2 = pool2.out_dims();
  layers.push_back(std::make_unique<MaxPool2d>(c2, 2));

  layers.push_back(std::make_unique<Flatten>(p2.size()));
  layers.push_back(std::make_unique<Linear>(p2.size(), 96));
  layers.push_back(std::make_unique<Relu>(96));
  layers.push_back(std::make_unique<Linear>(96, num_classes));
  return Sequential(std::move(layers));
}

Sequential make_resnet_mini(ImageDims input, std::size_t num_classes,
                            std::size_t blocks_per_stage,
                            std::size_t base_channels) {
  MARSIT_CHECK(blocks_per_stage >= 1) << "need at least one block per stage";
  MARSIT_CHECK(base_channels >= 2) << "base channel width too small";

  std::vector<std::unique_ptr<Layer>> layers;

  // Stem.
  Conv2d stem(input, base_channels, 3, 1, 1);
  ImageDims dims = stem.out_dims();
  layers.push_back(std::make_unique<Conv2d>(input, base_channels, 3, 1, 1));
  layers.push_back(std::make_unique<Relu>(dims.size()));

  for (std::size_t stage = 0; stage < 3; ++stage) {
    if (stage > 0) {
      // Downsample: stride-2 conv doubling the channel width.
      const std::size_t out_channels = dims.channels * 2;
      Conv2d down(dims, out_channels, 3, 2, 1);
      const ImageDims next = down.out_dims();
      layers.push_back(std::make_unique<Conv2d>(dims, out_channels, 3, 2, 1));
      layers.push_back(std::make_unique<Relu>(next.size()));
      dims = next;
    }
    for (std::size_t b = 0; b < blocks_per_stage; ++b) {
      layers.push_back(std::make_unique<ResidualConvBlock>(dims));
    }
  }

  layers.push_back(std::make_unique<GlobalAvgPool>(dims));
  // Small-scale head init: without normalization layers the pooled features
  // have O(depth) magnitude, and a full-scale head produces huge initial
  // logits whose first gradients destabilize momentum.
  auto head = std::make_unique<Linear>(dims.channels, num_classes);
  head->set_init_scale(0.1f);
  layers.push_back(std::move(head));
  return Sequential(std::move(layers));
}

Sequential make_resnet20_mini(ImageDims input, std::size_t num_classes) {
  // ResNet-20's 3 stages × 3 blocks, narrow.
  return make_resnet_mini(input, num_classes, 3, 8);
}

Sequential make_resnet18_mini(ImageDims input, std::size_t num_classes) {
  // ResNet-18's 2-block stages, wider than the -20 preset (mirroring the
  // 11M-vs-0.27M parameter ordering of the real pair).
  return make_resnet_mini(input, num_classes, 2, 12);
}

Sequential make_resnet50_mini(ImageDims input, std::size_t num_classes) {
  // Deepest and widest preset (the paper's largest vision model).
  return make_resnet_mini(input, num_classes, 3, 14);
}

Sequential make_text_classifier(std::size_t vocab_size, std::size_t seq_len,
                                std::size_t embed_dim,
                                std::size_t num_classes) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Embedding>(vocab_size, embed_dim, seq_len));
  layers.push_back(std::make_unique<MeanPool>(seq_len, embed_dim));
  layers.push_back(std::make_unique<Linear>(embed_dim, 64));
  layers.push_back(std::make_unique<Relu>(64));
  layers.push_back(std::make_unique<Linear>(64, num_classes));
  return Sequential(std::move(layers));
}

}  // namespace marsit
