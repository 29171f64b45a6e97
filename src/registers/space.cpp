#include "registers/space.hpp"

namespace swsig::registers {

Space::Space(runtime::StepController& controller, Enforcement mode)
    : controller_(&controller), free_(controller.as_free()), mode_(mode) {
  if (free_) {
    // Free mode: a metered access *is* a step — the controller pulls the
    // meters on steps(), so the hot path pays exactly one fetch-add.
    free_->add_access_source(&metrics_.read_counter());
    free_->add_access_source(&metrics_.write_counter());
  }
}

Space::~Space() {
  if (free_) {
    free_->remove_access_source(&metrics_.read_counter());
    free_->remove_access_source(&metrics_.write_counter());
  }
}

std::size_t Space::register_count() const {
  std::scoped_lock lock(mu_);
  return registry_.size();
}

}  // namespace swsig::registers
