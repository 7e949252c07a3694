#include "lesslog/obs/sink.hpp"

namespace lesslog::obs {

DeliverySink::~DeliverySink() = default;

void DeliverySink::on_peer(double /*time*/, core::Pid /*peer*/,
                           bool /*live*/) {}

}  // namespace lesslog::obs
