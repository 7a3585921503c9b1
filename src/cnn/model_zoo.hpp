// The eight CNN models of the paper's evaluation (§V-E), as sequential
// layer-config chains.
//
// DistrEdge (like the baselines it compares to) plans over sequentially
// connected conv/pool chains (paper §III-C.4). Branching architectures
// (ResNet, Inception, SSD heads, OpenPose branches, VoxelNet middle layers)
// are therefore encoded as their sequential conv-chain equivalents: the chain
// visits the same spatial resolutions and channel widths as the original
// backbone, so per-layer configuration statistics — the only thing any
// planner here consumes — match the originals. See DESIGN.md (substitutions).
#pragma once

#include <string>
#include <vector>

#include "cnn/model.hpp"

namespace de::cnn {

CnnModel vgg16();          ///< 224x224x3, 13 conv + 5 pool + 3 FC
CnnModel resnet50();       ///< 224x224x3, bottleneck chain + FC
CnnModel inception_v3();   ///< 299x299x3, stem + block-equivalent chain + FC
CnnModel yolov2();         ///< 416x416x3, Darknet-19 + detection head
CnnModel ssd_vgg16();      ///< 300x300x3, VGG base + extra feature layers
CnnModel ssd_resnet50();   ///< 300x300x3, ResNet base + extra feature layers
CnnModel openpose();       ///< 368x368x3, VGG19 front + CPM stages
CnnModel voxelnet();       ///< 400x352 BEV pseudo-image + RPN chain
/// Compact edge-tier streaming classifier (160x160x3, ~0.07 GFLOP; a
/// SqueezeNet-style pointwise-dominated chain). Unlike the paper-era
/// heavyweights above, its FLOPs are small next to its activation
/// footprint — the regime where the cluster's data plane, not the conv
/// kernels, bounds end-to-end IPS. perfbench's halo_stream and
/// multi_tenant workloads run on it.
CnnModel edgenet();

/// Lookup by canonical name ("vgg16", "resnet50", ...). Throws on unknown.
CnnModel model_by_name(const std::string& name);

/// Names in the order the paper's Figs. 10-11 list them (VGG-16 first).
std::vector<std::string> zoo_names();

}  // namespace de::cnn
